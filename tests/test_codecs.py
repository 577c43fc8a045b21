"""Property and format-freeze tests of the text codecs.

The array decoders must accept exactly what the per-token reference
accepts, the partition, matrix and sidecar readers may reject input
only with ValueError and the model reader only with ModelFormatError,
every save/load pair must round-trip bit-exactly, and the bytes each
writer produces are frozen against literal strings and equal to those
of its per-instance reference, whatever the batch size.  A file read in
line batches must give exactly its text's lines, and a file written
line by line exactly what its writer gives a text stream, or nothing at
all on bad input.  Every spelling of one file has one textio.file_key.
"""

import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gml_reference import parse_gml_reference, save_gml_reference, save_hidden_reference
from glocal import textio
from glocal.clustering import Partition, load_partition, save_partition
from glocal.cli import read_hidden, read_matrix
from glocal.data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    load_gml,
    load_hidden,
    load_matrix,
    parse_gml,
    save_gml,
    save_hidden,
    save_matrix,
)
from glocal.metrics import EvaluationReport
from glocal.model import GlocalModel, ModelFormatError, load_model, save_model
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
    n = draw(st.integers(1, 6))
    group = st.one_of(st.integers(1, n), st.integers(-3, 2**70))
    rows = [f"{i} {draw(group)}" for i in draw(st.permutations(range(1, n + 1)))]
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


# ---- (a'') fuzzed matrix, sidecar and model files -------------------------

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
    positions = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6))
    values = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(positions),
                           max_size=len(positions)))
    hidden = np.array([(j, i, v) for (j, i), v in zip(positions, values)],
                      dtype=np.int64).reshape(-1, 3)
    comments = draw(st.sampled_from([[], ["h"]]))
    # the reference writes entries in any order, so the reader also meets
    # repeats and entries out of order
    return mangle(draw, saved(save_hidden_reference, hidden, comments=comments),
                  READER_SNIPPETS)


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
    try:
        hidden = load_hidden(io.StringIO(text))
    except ValueError:
        return
    assert hidden.dtype == np.int64 and hidden.shape[1] == 3
    assert (hidden[:, :2] >= 0).all() and (np.abs(hidden[:, 2]) == 1).all()


@FUZZ
@given(model_text())
def test_parse_model_rejects_only_with_model_format_error(text):
    try:
        model = load_model(io.StringIO(text))
    except ModelFormatError:
        return
    blocks = (model.U, model.V, model.W, *model.factors)
    assert all(np.isfinite(B).all() for B in blocks)


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
    back = load_gml(path)
    # only nonzero features are written, so -0.0 reads back as 0.0
    assert same_bits(back.features.values, X + 0.0)
    assert same_bits(back.labels.values, Y)


@ROUND_TRIP
@given(st.data())
def test_matrix_round_trip_is_bit_exact(data):
    A = data.draw(float_block(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))))
    assert same_bits(load_matrix(io.StringIO(saved(save_matrix, A, comments=["x"]))), A)


@ROUND_TRIP
@given(st.sets(st.tuples(st.integers(0, 10**12), st.integers(0, 30)), max_size=12),
       st.randoms(use_true_random=False))
def test_hidden_round_trip_is_exact(positions, rnd):
    hidden = np.array(
        [(j, i, rnd.choice((-1, 1))) for j, i in sorted(positions)],
        dtype=np.int64,
    ).reshape(-1, 3)
    text = saved(save_hidden, hidden, comments=["h"])
    assert same_bits(load_hidden(io.StringIO(text)), hidden)


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
    # lines may come in any order, between comments and blank lines
    lines = saved(save_partition, part, comments=["g"]).splitlines()
    lines = data.draw(st.permutations(lines)) + ["", "# end"]
    back = load_partition(io.StringIO("\n".join(lines)), features)
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


# ---- (b'') the batch decoders' error order and chunk edges ---------------


def test_gml_error_names_the_first_bad_line_of_a_batch():
    # line 3's value is converted only with its batch, after line 4's
    # separators were read; the error must still name line 3
    text = "3 4 3\n+:1|-:2|1:0.5\n+:|-:|2:x\n+:3|-:|1:2:3\n"
    with pytest.raises(GmlFormatError) as want:
        parse_gml_reference(text)
    with pytest.raises(GmlFormatError) as got:
        load_gml(io.StringIO(text))
    assert str(got.value) == str(want.value) == "line 3: non-numeric feature value 'x'"


def test_gml_repeat_in_the_last_line_of_many_batches():
    rng = np.random.default_rng(7)
    n, d, l = 150, 50, 6  # 100 feature tokens a line: several batches
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


def test_sidecar_comments_and_blanks_mid_file_and_across_a_chunk_edge():
    rng = np.random.default_rng(8)
    m = 9000  # past two 4096-line chunks
    hidden = np.column_stack((np.arange(m) // 50, np.arange(m) % 50,
                              rng.choice([-1, 1], size=m)))
    lines = saved(save_hidden, hidden, comments=["source: toy"]).splitlines()
    # a 3-token comment, blank and whitespace-only lines mid-file, on both
    # sides of the first chunk edge and as the last lines
    for at, extra in ((8000, "# a b"), (4097, ""), (4096, "# source: toy"),
                      (4095, " \t"), (100, ""), (99, "# c d")):
        lines.insert(at, extra)
    text = "\n".join(lines + ["", "# end"]) + "\n"
    assert same_bits(load_hidden(io.StringIO(text)), hidden.astype(np.int64))


def test_sidecar_unsorted_entries_and_repeats():
    # entries must strictly increase by label_idx, then instance_idx: the
    # first one that does not is named, a repeat as a duplicate
    entries = [(1, 1, 1), (1, 2, -1), (2, 2, 1), (3, 1, 1)]
    text = "# h\n" + "".join(f"{j} {i} {v}\n" for j, i, v in entries)
    assert same_bits(load_hidden(io.StringIO(text)),
                     np.array(entries, dtype=np.int64) - (1, 1, 0))
    with pytest.raises(ValueError, match=r"^line 6: out-of-order hidden entry '2 2 -1'$"):
        load_hidden(io.StringIO(text + "2 2 -1\n"))
    with pytest.raises(ValueError, match=r"^line 6: duplicate hidden entry '3 1 -1'$"):
        load_hidden(io.StringIO(text + "3 1 -1\n"))
    with pytest.raises(ValueError, match=r"^line 2: out-of-order hidden entry '1 2 -1'$"):
        load_hidden(io.StringIO("3 1 1\n1 2 -1\n"))
    # a smaller instance_idx under the same label_idx is out of order too
    with pytest.raises(ValueError, match=r"^line 3: out-of-order hidden entry '1 1 1'$"):
        load_hidden(io.StringIO("1 1 1\n1 2 -1\n1 1 1\n"))


@pytest.mark.parametrize("chunk", [None, 1 << 20], ids=["default-batches", "one-batch"])
@pytest.mark.parametrize("fault", ["duplicate", "out-of-order"])
def test_sidecar_fault_past_a_chunk_edge_names_its_line(monkeypatch, chunk, fault):
    # one batch of lines holds every line, so the first 4096-line chunk
    # ends just before the bad line; by default the batch edges fall elsewhere
    if chunk is not None:
        monkeypatch.setattr(textio, "_CHUNK", chunk)
    lines = ["# h", ""] + [f"{j} {i} 1" for j in range(1, 101) for i in range(1, 51)]
    # comment and blank lines between the entry before the chunk edge and the bad one
    lines[4094:4096] = ["# c d e", " \t"]
    bad = lines[4093] if fault == "duplicate" else "1 1 -1"
    lines.insert(4096, bad)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=rf"^line 4097: {fault} hidden entry '{bad}'$"):
        load_hidden(io.StringIO(text))


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
    hidden = [(0, 3, 1), (2, 0, -1), (12, 7, 1)]
    save_hidden(hidden, path, comments=["toy"])
    assert path.read_bytes() == b"# toy\n1 4 1\n3 1 -1\n13 8 1\n"
    save_hidden(np.array(hidden), path)
    assert path.read_bytes() == b"1 4 1\n3 1 -1\n13 8 1\n"
    save_hidden([], path)
    assert path.read_bytes() == b""  # no entries, no lines
    part = Partition(2, [1, 2, 1])
    save_partition(part, path, comments=["groups"])
    assert path.read_bytes() == b"# groups\n1 1\n2 2\n3 1\n"
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


# ---- (d) the batched writers against the per-instance references ---------

WRITE = settings(derandomize=True, max_examples=150, deadline=None)
# features whose text is easy to get wrong, and zeros, which are not written
GML_FLOAT = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)),
                      st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def shared_datasets(draw):
    """A full dataset and a partly observed copy sharing its features, as
    synth writes them, with all-zero feature columns and all-unobserved
    and all-observed label columns among the mixed ones."""
    l, d, n = draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
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
@given(shared_datasets(), st.integers(1, 7))
def test_save_gml_writes_the_per_instance_bytes(tmp_path_factory, case, batch):
    full, masked = case
    root = tmp_path_factory.mktemp("gml")
    save_gml_reference({root / "want_full.gml": full, root / "want_train.gml": masked},
                       comments=["c"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("glocal.data._BATCH", batch)
        save_gml({root / "full.gml": full, root / "train.gml": masked}, comments=["c"])
    for name in ("full", "train"):
        assert (root / f"{name}.gml").read_bytes() == (root / f"want_{name}.gml").read_bytes()


@st.composite
def sidecars(draw):
    """Hidden entries in runs of one label index, strictly increasing or
    not, with indices up to 2**62 and repeated (instance_idx, value)
    pairs."""
    index = st.one_of(st.integers(0, 3), st.integers(0, 2**62))
    runs = draw(st.lists(st.tuples(index, st.integers(1, 9)), max_size=5))
    entries = [(j, draw(index), draw(st.sampled_from([-1, 1])))
               for j, size in runs for _ in range(size)]
    if draw(st.booleans()):
        # as apply_mask returns them: each position once, by label, then instance
        entries = [(j, i, v) for (j, i), v in sorted({(j, i): v for j, i, v in entries}.items())]
    elif draw(st.booleans()):
        entries = draw(st.permutations(entries))
    return np.array(entries, dtype=np.int64).reshape(-1, 3)


@WRITE
@given(sidecars(), st.integers(1, 7))
def test_save_hidden_writes_the_per_entry_bytes(hidden, batch):
    want = saved(save_hidden_reference, hidden, comments=["h"])
    keys = hidden[:, :2].tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("glocal.data._BATCH", batch)
        if not all(a < b for a, b in zip(keys, keys[1:])):
            with pytest.raises(ValueError, match="^hidden entries must strictly increase"):
                saved(save_hidden, hidden)
            return
        assert saved(save_hidden, hidden, comments=["h"]) == want
        assert saved(save_hidden, hidden.tolist()) == saved(save_hidden_reference, hidden)


# ---- (e) comment stamps ---------------------------------------------------

_FEATURES = FeatureMatrix(np.zeros((1, 3)))
_PART = Partition(2, [1, 2, 1])
_MODEL = GlocalModel(U=np.ones((2, 1)), V=np.ones((1, 3)), W=np.ones((1, 1)),
                     factors=(np.array([[1.0], [-1.0]]),), provenance={"seed": 1})

# each writer, as the text it writes given comments and a temporary directory
WRITERS = {
    "save_gml": lambda c, tmp: gml_saved(
        tmp, Dataset(FeatureMatrix([[0.5, 0.0]]), LabelMatrix([[1, 0], [-1, 1]])), comments=c),
    "save_hidden": lambda c, tmp: saved(save_hidden, [(0, 1, 1)], comments=c),
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


# ---- (f) reading and writing files a batch of lines at a time -------------

# the characters of HOSTILE that str.splitlines breaks a line at
BREAKS = sorted({c for c in HOSTILE if len(f"a{c}b".splitlines()) == 2})
LINE_TEXT = st.lists(
    st.one_of(st.sampled_from(BREAKS), st.just("\r\n"), st.sampled_from(["a", "é", " ", "#"])),
    max_size=40,
).map("".join)


@FUZZ
@given(LINE_TEXT, st.integers(1, 7))
def test_line_batches_join_to_read_text_splitlines(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    want = path.read_text(encoding="utf-8").splitlines()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_CHUNK", chunk)
        from_path = list(textio.line_batches(path))
        # a stream that keeps '\r\n' pairs, as a StringIO does
        from_stream = list(textio.line_batches(io.StringIO(text)))
    for batches in (from_path, from_stream):
        assert all(batches)  # no empty batch
        assert [line for batch in batches for line in batch] == want


@pytest.mark.parametrize("text, want", [
    ("", []),
    ("ab", ["ab"]),  # no final newline
    ("\n\nab\n\n", ["", "", "ab", ""]),  # blank lines
    ("abc\r\nd", ["abc", "d"]),  # '\r\n' across the 3-character chunk edge
    ("ab\r\ncd", ["ab", "cd"]),  # '\r' ends a chunk, '\n' starts the next
])
def test_line_batches_edge_cases(tmp_path, monkeypatch, text, want):
    monkeypatch.setattr(textio, "_CHUNK", 3)
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    assert path.read_text(encoding="utf-8").splitlines() == want
    # open streams that keep '\r\n' pairs and that translate them
    with open(path, encoding="utf-8", newline="") as kept, open(path, encoding="utf-8") as translated:
        for source in (path, io.StringIO(text), kept, translated):
            assert [line for batch in textio.line_batches(source) for line in batch] == want


@pytest.mark.parametrize("brk", [*BREAKS, "\r\n"], ids=ascii)
def test_line_batches_hold_a_chunk_and_a_line_for_every_break(tmp_path, monkeypatch, brk):
    monkeypatch.setattr(textio, "_CHUNK", 64)
    lines = [f"{j} {i} -1" for j in range(1, 41) for i in range(1, 51)]
    path = tmp_path / "f.txt"
    path.write_bytes((brk.join(lines) + brk).encode("utf-8"))
    want = path.read_text(encoding="utf-8").splitlines()
    assert want == lines
    with open(path, encoding="utf-8", newline="") as kept, \
            open(path, encoding="utf-8", newline="\r") as cr:
        # each source, with the width of a break in the text it reads: a
        # path is read with universal newlines, which make every '\r\n' one '\n'
        for source, width in ((path, 1), (io.StringIO(brk.join(lines) + brk), len(brk)),
                              (kept, len(brk)), (cr, len(brk))):
            batches = list(textio.line_batches(source))
            assert [line for batch in batches for line in batch] == want
            # a batch is the lines that end in one chunk, the first of
            # which may begin in the chunk before
            held = max(sum(len(x) + width for x in batch) for batch in batches)
            assert held <= 64 + max(map(len, lines)) + width


def test_line_batches_read_a_long_line_in_few_reads(monkeypatch):
    # while a line goes on past a chunk, each read is as long as the part
    # of it carried, so the reads double
    monkeypatch.setattr(textio, "_CHUNK", 16)
    reads = []

    class Counted(io.StringIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    text = "1.5 " * 4096 + "\n2\n"
    batches = textio.line_batches(Counted(text))
    assert [line for batch in batches for line in batch] == ["1.5 " * 4096, "2"]
    assert len(reads) < 20  # one chunk at a time would take over 1,000 reads


_DATA = Dataset(FeatureMatrix([[0.5, 0.0, 1 / 3]]), LabelMatrix([[1, 0, -1], [-1, 1, 0]]))
_HIDDEN = np.column_stack((np.arange(9000) // 50, np.arange(9000) % 50,
                           np.resize([1, -1, -1], 9000)))  # past two _BATCH blocks
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
                 lambda p: _same_data(load_gml(p), _DATA)),
    "save_hidden": (lambda c, p: save_hidden(_HIDDEN, p, comments=c),
                    lambda p: same_bits(load_hidden(p), _HIDDEN)),
    "save_matrix": (lambda c, p: save_matrix(_MATRIX, p, comments=c),
                    lambda p: same_bits(load_matrix(p), _MATRIX)),
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


def test_load_hidden_reads_a_text_stream_once(tmp_path):
    path = tmp_path / "hidden.txt"
    save_hidden(_HIDDEN, path, comments=["toy"])
    assert same_bits(load_hidden(io.StringIO("1 1 1\n2 1 -1\n")),
                     np.array([[0, 0, 1], [1, 0, -1]]))
    assert same_bits(load_hidden(io.StringIO(path.read_text(encoding="utf-8"))), _HIDDEN)
    with open(path, encoding="utf-8") as stream:
        assert same_bits(load_hidden(stream), _HIDDEN)
    # the error path names the line from its chunk: no line is held for it
    with pytest.raises(ValueError, match=r"^line 3: duplicate hidden entry '2 1 -1'$"):
        load_hidden(io.StringIO("1 1 1\n2 1 -1\n2 1 -1\n"))
    with pytest.raises(ValueError, match=r"^line 3: out-of-order hidden entry '1 1 1'$"):
        load_hidden(io.StringIO("1 1 1\n2 1 -1\n1 1 1\n"))


def test_load_hidden_reads_a_path_once(tmp_path, monkeypatch):
    reads = []

    def spy(source):
        reads.append(source)
        return textio.line_batches(source)

    monkeypatch.setattr("glocal.data.line_batches", spy)
    path = tmp_path / "hidden.txt"
    save_hidden(_HIDDEN, path, comments=["toy"])
    assert same_bits(load_hidden(path), _HIDDEN)
    assert reads == [path]
    # the error path names the bad line without reading the file again
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[5000] = "1 2 x"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reads.clear()
    with pytest.raises(ValueError, match="^line 5001: expected three integers$"):
        load_hidden(path)
    assert reads == [path]


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


# the string readers kept for the benchmark, each with its format's reader
SHIMS = {"gml": (parse_gml, load_gml), "matrix": (read_matrix, load_matrix),
         "hidden": (read_hidden, load_hidden)}


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
    ("hidden", "# h\n1 1 1\n\n# c d e\n2 3 -1\n", None),
    ("hidden", "1 1 1\r\n2 1 -1\r\n", None),
    ("hidden", "3 1 1\n1 2 -1\n", "^line 2: out-of-order hidden entry '1 2 -1'$"),
    ("hidden", "1 2\n", "^line 1: expected 'label_idx instance_idx value'$"),
    ("hidden", "1 1 1\n1 2 x\n", "^line 2: expected three integers$"),
    ("hidden", "1 1 1\n1 1 -1\n", "^line 2: duplicate hidden entry '1 1 -1'$"),
    ("hidden", "3 1 1\n\n1 2 -1\n3 1 -1\n", "^line 3: out-of-order hidden entry '1 2 -1'$"),
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
    (lambda c, p: save_hidden(np.zeros((2, 2)), p, comments=c), [], ValueError),
    # 12 values are four rows of three, but not an (m, 3) array
    (lambda c, p: save_hidden(np.arange(12).reshape(2, 6), p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([0, 1, 1], p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([(0, 1, 1), (2, -1, 1)], p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([(-1, 0, 1)], p, comments=c), [], ValueError),
    # its 1-based index would overflow int64
    (lambda c, p: save_hidden([(2**63 - 1, 0, 1)], p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([(0, 1, 1), (1, 1, 0)], p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([(0, 1, 2)], p, comments=c), [], ValueError),
    # the entries given are checked, not their int64 cast: 0.5 is not label 0
    (lambda c, p: save_hidden([(0.5, 1, 1)], p, comments=c), [], ValueError),
    # entries must strictly increase by label_idx, then instance_idx
    (lambda c, p: save_hidden([(1, 0, 1), (0, 5, 1)], p, comments=c), [], ValueError),
    (lambda c, p: save_hidden([(0, 1, 1), (0, 1, -1)], p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.zeros(3), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.zeros((2, 2, 2)), p, comments=c), [], ValueError),
    # a matrix holds real numbers: none of these is written as a cast of it
    (lambda c, p: save_matrix(np.array([[1 + 1j, 2]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([["1", "2"]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([[True, False]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([[1, 2]], dtype=object), p, comments=c), [],
     ValueError),
], ids=[*(f"{name}-comment" for name in STREAMED), "save_hidden-shape",
        "save_hidden-2x6", "save_hidden-1d", "save_hidden-negative-instance",
        "save_hidden-negative-label", "save_hidden-int64-max", "save_hidden-value-0",
        "save_hidden-value-2", "save_hidden-fraction", "save_hidden-decrease",
        "save_hidden-repeat", "save_matrix-1d", "save_matrix-3d", "save_matrix-complex",
        "save_matrix-text", "save_matrix-bool", "save_matrix-object"])
def test_writer_input_errors_leave_an_existing_file_untouched(tmp_path, save, comments, error):
    path = tmp_path / "out.txt"
    path.write_bytes(b"keep\n")
    with pytest.raises(error):
        save(comments, path)
    assert path.read_bytes() == b"keep\n"
