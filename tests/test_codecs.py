"""Property and format-freeze tests of the text codecs.

The array decoders must accept exactly what the per-token reference
accepts, the partition reader may reject input only with ValueError,
every writer must round-trip bit-exactly, and the bytes each writer
produces are frozen against literal strings.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gml_reference import parse_gml_reference
from glocal.clustering import partition_from_assignment, read_partition, write_partition
from glocal.cli import read_hidden, read_matrix, write_hidden, write_matrix
from glocal.data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    parse_gml,
    write_gml,
)
from glocal.model import GlocalModel, load_model, parse_model, save_model

# deterministic, bounded runs keep tier-1 repeatable and fast
FUZZ = settings(derandomize=True, max_examples=400, deadline=None)
ROUND_TRIP = settings(derandomize=True, max_examples=60, deadline=None)

# floats whose text form is easy to get wrong
AWKWARD = (5e-324, -0.0, 1e-17, -2.5e300, 1 / 3, 2.0**-1074 * 3, 1.7976931348623157e308)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


@FUZZ
@given(gml_text())
def test_parse_gml_matches_per_token_reference(text):
    try:
        want = parse_gml_reference(text)
    except ValueError as exc:  # GmlFormatError, or numpy refusing a huge header
        with pytest.raises(type(exc)) as got:
            parse_gml(text)
        assert str(got.value) == str(exc)
        return
    got = parse_gml(text)
    assert same_bits(got.features.values, want.features.values)
    assert same_bits(got.labels.values, want.labels.values)


def test_gml_fuzz_reaches_both_outcomes():
    # the fuzzing above is only meaningful if it produces valid and
    # invalid files alike; count both over a fixed sample
    outcomes = {"accepted": 0, "rejected": 0}

    @FUZZ
    @given(gml_text())
    def classify(text):
        try:
            parse_gml_reference(text)
            outcomes["accepted"] += 1
        except GmlFormatError:
            outcomes["rejected"] += 1

    classify()
    assert outcomes["accepted"] >= 20 and outcomes["rejected"] >= 20


# ---- (a') fuzzed partition files ----------------------------------------

PART_SNIPPETS = [
    "", " ", "\t", "#", "\n", "\r", "-", "-1", "0", "1", "_", ".5", "x", "١", "\x00",
    "99999999999999999999", str(2**63), " 7", "1 2",
]


@st.composite
def partition_text(draw):
    n = draw(st.integers(1, 6))
    group = st.one_of(st.integers(1, n), st.integers(-3, 2**70))
    rows = [f"{i} {draw(group)}" for i in draw(st.permutations(range(1, n + 1)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["# c", "", "  "])))
    text = "\n".join(rows) + draw(st.sampled_from(["\n", ""]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PART_SNIPPETS)) + text[at + draw(st.integers(0, 2)):]
    return text, n


@FUZZ
@given(partition_text())
def test_read_partition_rejects_only_with_value_error(case):
    text, n = case
    try:
        part = read_partition(text, FeatureMatrix(np.zeros((1, n))))
    except ValueError:
        return
    assert part.n == n and part.sizes.sum() == n and (part.sizes >= 1).all()


# ---- (b) bit-exact round trips ------------------------------------------

FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(AWKWARD),
)


def float_block(rows, cols):
    return arrays(np.float64, (rows, cols), elements=FLOAT)


@ROUND_TRIP
@given(st.data())
def test_gml_round_trip_is_bit_exact(data):
    d, n, l = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(
        st.integers(2, 4))
    X = data.draw(float_block(d, n))
    Y = data.draw(arrays(np.int8, (l, n), elements=st.sampled_from([-1, 0, 1])))
    back = parse_gml(write_gml(Dataset(FeatureMatrix(X), LabelMatrix(Y))))
    # only nonzero features are written, so -0.0 reads back as 0.0
    assert same_bits(back.features.values, X + 0.0)
    assert same_bits(back.labels.values, Y)


@ROUND_TRIP
@given(st.data())
def test_matrix_round_trip_is_bit_exact(data):
    A = data.draw(float_block(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))))
    assert same_bits(read_matrix(write_matrix(A, comments=["x"])), A)


@ROUND_TRIP
@given(st.sets(st.tuples(st.integers(0, 10**12), st.integers(0, 30)), max_size=12),
       st.randoms(use_true_random=False))
def test_hidden_round_trip_is_exact(positions, rnd):
    hidden = np.array(
        [(j, i, rnd.choice((-1, 1))) for j, i in sorted(positions, key=str)],
        dtype=np.int64,
    ).reshape(-1, 3)
    assert same_bits(read_hidden(write_hidden(hidden, comments=["h"])), hidden)


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
    buf = io.StringIO()
    save_model(model, buf, comments=["c"])
    for back in (parse_model(buf.getvalue()), load_model(io.StringIO(buf.getvalue()))):
        for got, want in zip((back.U, back.V, back.W, *back.factors),
                             (model.U, model.V, model.W, *model.factors)):
            assert same_bits(got, want)


@ROUND_TRIP
@given(st.data())
def test_partition_round_trip_is_exact(data):
    n = data.draw(st.integers(1, 12))
    raw = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    assignment = np.unique(raw, return_inverse=True)[1].reshape(n) + 1  # no empty group
    X = data.draw(arrays(np.float64, (2, n), elements=st.floats(-1e300, 1e300)))
    features = FeatureMatrix(X)
    part = partition_from_assignment(features, assignment)
    # lines may come in any order, between comments and blank lines
    lines = write_partition(part, comments=["g"]).splitlines()
    lines = data.draw(st.permutations(lines)) + ["", "# end"]
    back = read_partition("\n".join(lines), features)
    assert same_bits(back.assignment, part.assignment)
    assert same_bits(back.sizes, part.sizes)
    assert same_bits(back.centroids, part.centroids)


def test_readers_accept_any_line_layout():
    # values are a token stream: blocks may span lines or share them
    assert same_bits(read_matrix("2\n2 1\n\n2\n# c\n3 4\n"),
                     np.array([[1.0, 2.0], [3.0, 4.0]]))
    model = GlocalModel(U=np.ones((2, 1)), V=np.ones((1, 2)), W=np.ones((1, 1)),
                        factors=(np.ones((2, 1)),))
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    assert same_bits(parse_model(lines[0] + "\n" + " ".join(lines[1:])).V, model.V)


# ---- (c) the writers' bytes, frozen --------------------------------------


def test_writers_output_is_frozen():
    X = np.array([[0.5, -0.0, 1 / 3], [0.0, 5e-324, -2.5e300]])
    Y = np.array([[1, -1, 0], [0, 1, 1], [-1, 0, -1]])
    assert write_gml(Dataset(FeatureMatrix(X), LabelMatrix(Y)), comments=["seed=1"]) == (
        "# seed=1\n3 2 3\n+:1|-:3|1:0.5\n+:2|-:1|2:5e-324\n"
        "+:2|-:3|1:0.3333333333333333 2:-2.5e+300\n"
    )
    A = np.array([[1 / 3, -0.0, 1e-17], [5e-324, -2.5e300, 2.0]])
    assert write_matrix(A, comments=["scores"]) == (
        "# scores\n2 3\n0.33333333333333331 -0 1.0000000000000001e-17\n"
        "4.9406564584124654e-324 -2.5000000000000001e+300 2\n"
    )
    hidden = [(0, 3, 1), (2, 0, -1), (12, 7, 1)]
    assert write_hidden(hidden, comments=["toy"]) == "# toy\n1 4 1\n3 1 -1\n13 8 1\n"
    assert write_hidden(np.array(hidden)) == "1 4 1\n3 1 -1\n13 8 1\n"
    assert write_hidden([]) == "\n"
    model = GlocalModel(
        U=np.array([[1 / 3], [-0.0]]),
        V=np.array([[5e-324, 1e-17, 2.0]]),
        W=np.array([[-2.5e300]]),
        factors=(np.array([[1.0], [-1.0]]), np.array([[0.6], [-0.8]])),
    )
    buf = io.StringIO()
    save_model(model, buf, comments=["k=1"])
    assert buf.getvalue() == (
        "GLOCAL-MODEL v1\n# k=1\n2 1 1 2\nU 2 1\n0.33333333333333331\n-0\n"
        "W 1 1\n-2.5000000000000001e+300\n"
        "V 1 3\n4.9406564584124654e-324 1.0000000000000001e-17 2\n"
        "Z_1 2 1\n1\n-1\nZ_2 2 1\n0.59999999999999998\n-0.80000000000000004\n"
    )
