import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from glocal import data as data_module
from glocal.data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    apply_mask,
    load_gml,
    save_gml,
    split,
    take_instances,
)
from test_codecs import decoded


def random_dataset(rng, l=5, n=8, d=4, zero_frac=0.3):
    X = rng.standard_normal((d, n))
    Y = rng.choice([-1, 1], size=(l, n))
    Y[rng.random((l, n)) < zero_frac] = 0
    return Dataset(FeatureMatrix(X), LabelMatrix(Y))


def gml_text(directory, data, comments=()):
    """The text save_gml writes for data alone."""
    path = directory / "alone.gml"
    save_gml({path: data}, comments=comments)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("l, n, rho, kept", [
    (2, 5, 5, 1),  # 0.5 positions
    (2, 5, 15, 2),  # 1.5
    (2, 5, 25, 3),  # 2.5
    (2, 5, 24, 2),  # 2.4
    (2, 5, 0, 0),
    (10, 100, 30, 300),  # the masking count from the docs: 30% of 10x100
])
def test_mask_rounds_an_exact_half_up(l, n, rho, kept):
    data = random_dataset(np.random.default_rng(0), l=l, n=n, zero_frac=0.0)
    masked = apply_mask(data, rho=rho, seed=0)
    assert np.count_nonzero(masked.labels.values) == kept
    assert np.count_nonzero(data.labels.values - masked.labels.values) == l * n - kept


@pytest.mark.parametrize("fraction, n_train", [(0.1, 1), (0.3, 2), (0.5, 3), (0.46, 2)])
def test_split_rounds_an_exact_half_up(fraction, n_train):
    # of 5 instances: 0.5, 1.5, 2.5 and 2.3 train instances
    train, test = split(random_dataset(np.random.default_rng(0), n=5), fraction, seed=0)
    assert (train.n, test.n) == (n_train, 5 - n_train)


def test_parse_minimal():
    text = "2 3 3\n+:1|-:2|1:0.5 3:1.0\n+:2|-:|2:2.0\n"
    data = load_gml(io.StringIO(text))
    assert (data.n, data.d, data.l) == (2, 3, 3)
    assert data.labels.values[:, 0].tolist() == [1, -1, 0]
    assert data.labels.values[:, 1].tolist() == [0, 1, 0]
    assert data.features.values[:, 0].tolist() == [0.5, 0.0, 1.0]
    assert data.features.values[:, 1].tolist() == [0.0, 2.0, 0.0]


def test_parse_skips_comments():
    text = "# made by a tool\n2 3 3\n# another note\n+:1|-:|\n+:|-:3|1:4.25\n"
    data = load_gml(io.StringIO(text))
    assert data.n == 2
    assert data.features.values[0, 1] == 4.25


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_gml_example_parses(doc):
    text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
    # the fenced block under the File formats entry for datasets
    example = text.split("**Dataset (`.gml`)**", 1)[1].split("```\n", 2)[1]
    data = load_gml(io.StringIO(example))
    assert (data.n, data.d, data.l) == (3, 4, 2)
    assert data.labels.values.T.tolist() == [[1, -1], [-1, -1], [-1, 1]]
    assert data.features.values[:, 1].tolist() == [0.0, 2.0, 0.0, 0.0]


def test_indicator_tracks_values():
    data = load_gml(io.StringIO("2 3 3\n+:1|-:2|1:0.5 3:1.0\n+:2|-:|2:2.0\n"))
    mask = data.labels.indicator
    assert mask.dtype == np.bool_ and not mask.flags.writeable
    assert np.array_equal(mask, data.labels.values != 0)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("2 3\n+:|-:|\n+:|-:|\n", 1),  # malformed header
        ("nope 3 3\n+:|-:|\n", 1),
        ("1 3 1\n+:1|-:|\n", 1),  # l < 2
        ("1 3 3\n+:4|-:|\n", 2),  # label out of range
        ("1 3 3\n+:1,1|-:|\n", 2),  # duplicate within +
        ("1 3 3\n+:1|-:1|\n", 2),  # duplicate across +/-
        ("1 3 3\n+:1|-:2|1:abc\n", 2),  # non-numeric feature value
        ("1 3 3\n+:1|-:2|1:0.5 1:0.7\n", 2),  # duplicate feature
        ("1 3 3\n+:1|-:2|4:0.5\n", 2),  # feature index out of range
        ("2 3 3\n+:1|-:2\n+:|-:|\n", 2),  # missing field
        ("# hi\n2 3 3\n# hmm\n+:1|-:|\n+:x|-:|\n", 5),  # line numbers count comments
        # sizes numpy cannot allocate are reported at the header line
        ("# big\n1 99999999999999999999 2\n+:1|-:2|\n", 2),
        ("# big\n1 2 99999999999999999999\n+:1|-:2|\n", 2),
        ("# big\n1 9223372036854775807 2\n+:1|-:2|\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(GmlFormatError, match=f"line {line_no}"):
        load_gml(io.StringIO(text))


@pytest.mark.parametrize("header", ["", "2", "2 3", "2 3 3 1", "2 3 3 x"])
def test_parse_header_of_other_than_three_tokens(header):
    message = f"line 2: malformed header {header!r}, expected 'n d l'"
    with pytest.raises(GmlFormatError, match=f"^{re.escape(message)}$"):
        load_gml(io.StringIO(f"# c\n{header}\n+:1|-:2|\n+:|-:|\n"))


def test_parse_wrong_instance_count():
    with pytest.raises(GmlFormatError, match="expected 3 instance lines"):
        load_gml(io.StringIO("3 2 2\n+:|-:|\n+:|-:|\n"))


def refuse_feature_block(monkeypatch, shape):
    """Make numpy fail to allocate a float64 block of `shape` as it would
    with too little memory, so whether a header's feature block fits
    does not depend on the host."""
    zeros = np.zeros

    def fake(size, dtype=float, *args, **kwargs):
        if size == shape and dtype is np.float64:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(size, dtype, *args, **kwargs)

    monkeypatch.setattr(data_module.np, "zeros", fake)


@pytest.mark.parametrize("lines, error, message", [
    # a wrong line count is still the error reported
    ("+:|-:|\n+:|-:|\n", GmlFormatError, "^expected 3 instance lines, found 2$"),
    ("+:|-:|\n+:|-:|\n+:|-:|\n", MemoryError,
     "^Unable to allocate an array with shape \\(5, 3\\)$"),
])
def test_a_feature_block_that_cannot_be_allocated(monkeypatch, lines, error, message):
    refuse_feature_block(monkeypatch, (5, 3))
    with pytest.raises(error, match=message):
        load_gml(io.StringIO("3 5 2\n" + lines))


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        data = random_dataset(rng, l=rng.integers(2, 7), n=rng.integers(1, 9),
                              d=rng.integers(1, 6))
        save_gml({tmp_path / "d.gml": data})
        back = decoded(load_gml, tmp_path / "d.gml")
        assert np.array_equal(back.features.values, data.features.values)
        assert np.array_equal(back.labels.values, data.labels.values)


def test_roundtrip_full_precision(tmp_path):
    # awkward floats must survive the text round trip bit-exactly
    X = np.array([[1 / 3, 1e-17], [np.pi, -2.5e300]])
    Y = np.array([[1, -1], [0, 1]])
    data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    save_gml({tmp_path / "d.gml": data})
    back = decoded(load_gml, tmp_path / "d.gml")
    assert np.array_equal(back.features.values, X)


def test_write_emits_comments(tmp_path):
    data = load_gml(io.StringIO("1 2 2\n+:1|-:2|1:1.0\n"))
    text = gml_text(tmp_path, data, comments=["seed=5"])
    assert text.splitlines()[0] == "# seed=5"
    assert load_gml(io.StringIO(text)).n == 1


@pytest.mark.parametrize("full_first", [True, False])
def test_datasets_sharing_features_write_as_from_fresh_copies(
    tmp_path, monkeypatch, full_first
):
    # writing two datasets that share one matrix, in either order or in
    # one save_gml pass, must give the bytes each gives from a matrix of
    # its own
    rng = np.random.default_rng(11)
    full = random_dataset(rng, l=6, n=9, d=5, zero_frac=0.0)
    masked = apply_mask(full, rho=40.0, seed=2)
    assert masked.features is full.features
    fresh = [
        gml_text(tmp_path, Dataset(FeatureMatrix(d.features.values.copy()), d.labels))
        for d in (full, masked)
    ]
    order = [0, 1] if full_first else [1, 0]
    shared = {i: gml_text(tmp_path, (full, masked)[i]) for i in order}
    assert [shared[0], shared[1]] == fresh
    assert gml_text(tmp_path, full) == fresh[0]  # and again
    paths = [tmp_path / "full.gml", tmp_path / "masked.gml"]
    save_gml({paths[i]: (full, masked)[i] for i in order})
    assert [p.read_text(encoding="utf-8") for p in paths] == fresh
    # two paths naming one file, through a hard link too: it is opened
    # once and gets the later dataset
    os.link(paths[1], tmp_path / "hard.gml")
    opened = []

    def counted_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(data_module, "open", counted_open, raising=False)
    save_gml({str(paths[0]): full, f"{tmp_path}/./full.gml": masked})
    save_gml({paths[1]: masked, tmp_path / "hard.gml": full})
    assert len([path for path in opened if str(path).endswith(".gml")]) == 2
    assert [p.read_text(encoding="utf-8") for p in paths] == [fresh[1], fresh[0]]
    with pytest.raises(ValueError, match="must share one FeatureMatrix"):
        save_gml({paths[0]: full, paths[1]: Dataset(FeatureMatrix(full.features.values),
                                                    full.labels)})


def test_saving_no_dataset_is_refused_before_any_file_is_opened(monkeypatch):
    monkeypatch.setattr(data_module, "open", lambda *args, **kwargs: pytest.fail("opened"),
                        raising=False)
    with pytest.raises(ValueError, match=r"^save_gml needs at least one file to write$"):
        save_gml({})


def test_arrays_read_only():
    data = load_gml(io.StringIO("1 2 2\n+:1|-:2|1:1.0\n"))
    with pytest.raises(ValueError):
        data.features.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.labels.values[0, 0] = 0


def test_containers_copy_a_callers_arrays():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    Y = np.array([[1, -1], [0, 1]], dtype=np.int8)
    frozen = X.copy()
    frozen.setflags(write=False)  # read-only, but its owner may unfreeze it
    matrices = (FeatureMatrix(X), LabelMatrix(Y), FeatureMatrix(frozen))
    X[0, 0], Y[0, 0] = 9.0, 0
    frozen.setflags(write=True)
    frozen[1, 1] = 9.0
    assert matrices[0].values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert matrices[1].values.tolist() == [[1, -1], [0, 1]]
    assert matrices[2].values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_label_matrix_validation():
    with pytest.raises(ValueError):
        LabelMatrix(np.array([[1, 0, -1]]))  # l = 1
    with pytest.raises(ValueError):
        LabelMatrix(np.array([[2, 0], [0, 1]]))  # bad entry
    with pytest.raises(ValueError, match="^label entries must be -1, 0 or \\+1$"):
        LabelMatrix(np.array([[-2, 0], [0, 1]]))  # bad entry below the range
    with pytest.raises(ValueError, match="^label matrix must be 2-D \\(l x n\\)$"):
        LabelMatrix(np.array([1, 0, -1]))
    # the entries given are checked, not their int8 cast: 257 is not +1, a
    # fraction is not "unobserved", and NaN or 1e10 raise no numpy warning
    for bad in (257, 0.5, np.nan, 1e10, 1 + 0j):
        with pytest.raises(ValueError, match="^label entries must be -1, 0 or \\+1$"):
            LabelMatrix(np.array([[bad, 1], [1, -1]]))
    with pytest.raises(ValueError, match="^label entries must be -1, 0 or \\+1$"):
        LabelMatrix(np.array([[True, False], [False, True]]))
    # floats that are exactly -1, 0 or +1 are labels
    assert LabelMatrix(np.array([[1.0, 0.0], [-1.0, 1.0]])).values.tolist() == [[1, 0], [-1, 1]]
    assert LabelMatrix(np.zeros((3, 0))).values.shape == (3, 0)  # no instances


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="^feature matrix must be 2-D \\(d x n\\)$"):
        FeatureMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="^feature matrix contains non-finite values$"):
        FeatureMatrix(np.array([[1.0, np.inf]]))
    # what float64 cannot hold is refused, not cast: an imaginary part is
    # not dropped, text is not parsed
    for bad, dtype in ((1 + 1j, "complex128"), ("1.5", "<U3"), (True, "bool")):
        with pytest.raises(ValueError,
                           match=f"^feature matrix must hold real numbers, got dtype {dtype}$"):
            FeatureMatrix(np.array([[bad]]))
    assert FeatureMatrix(np.zeros((2, 0))).values.shape == (2, 0)  # no instances


def test_dataset_count_mismatch():
    with pytest.raises(ValueError):
        Dataset(FeatureMatrix(np.zeros((2, 3))), LabelMatrix(np.zeros((2, 4))))


def test_mask_validation():
    data = random_dataset(np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_mask(data, rho=-1, seed=0)
    with pytest.raises(ValueError):
        apply_mask(data, rho=100.5, seed=0)
    # a rate is a real number and a seed an integer, each refused by name
    for bad in ("30", True, None):
        with pytest.raises(ValueError, match=f"^rho must be a real number, got {bad!r}$"):
            apply_mask(data, rho=bad, seed=0)
    with pytest.raises(ValueError, match="^rho must be finite$"):
        apply_mask(data, rho=np.nan, seed=0)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.0$"):
        apply_mask(data, rho=30, seed=1.0)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        apply_mask(data, rho=30, seed=-1)
    # an integer rate masks as the same float does
    assert np.array_equal(apply_mask(data, rho=30, seed=0).labels.values,
                          apply_mask(data, rho=30.0, seed=0).labels.values)


def test_mask_counts_fully_observed():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 100))
    Y = rng.choice([-1, 1], size=(10, 100))
    data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    masked = apply_mask(data, rho=30, seed=4)
    assert int(masked.labels.indicator.sum()) == 300
    assert np.count_nonzero(data.labels.values - masked.labels.values) == 700


def test_mask_extremes():
    rng = np.random.default_rng(1)
    data = random_dataset(rng)
    full = apply_mask(data, rho=100, seed=0)
    assert np.array_equal(full.labels.values, data.labels.values)
    assert not (data.labels.values - full.labels.values).any()
    none = apply_mask(data, rho=0, seed=0)
    assert not none.labels.values.any()
    assert np.array_equal(data.labels.values - none.labels.values, data.labels.values)


def test_mask_never_flips_kept_values():
    rng = np.random.default_rng(2)
    data = random_dataset(rng, zero_frac=0.5)
    masked = apply_mask(data, rho=40, seed=9)
    Y, M = data.labels.values, masked.labels.values
    hidden = Y - M
    # every surviving value matches the original, hidden ones were observed
    assert np.all((M == Y) | (M == 0))
    at = hidden != 0
    assert np.array_equal(Y[at], hidden[at]) and not M[at].any()
    # the hidden labels are exactly the observations that vanished
    assert np.count_nonzero(hidden) == int(np.count_nonzero(Y)) - int(np.count_nonzero(M))


def test_mask_deterministic():
    rng = np.random.default_rng(3)
    data = random_dataset(rng)
    a1 = apply_mask(data, rho=50, seed=11)
    a2 = apply_mask(data, rho=50, seed=11)
    b = apply_mask(data, rho=50, seed=12)
    h1, h2 = (data.labels.values - a.labels.values for a in (a1, a2))
    assert np.array_equal(a1.labels.values, a2.labels.values) and np.array_equal(h1, h2)
    assert not np.array_equal(a1.labels.values, b.labels.values)


def test_split_sizes_and_disjointness():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, n=10)
    train, test = split(data, 0.6, seed=0)
    assert (train.n, test.n) == (6, 4)
    # the two sides together are a column permutation of the input
    both = np.concatenate([train.features.values, test.features.values], axis=1)
    assert sorted(map(tuple, both.T)) == sorted(map(tuple, data.features.values.T))


def test_split_deterministic_and_errors():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n=10)
    a_train, _ = split(data, 0.5, seed=1)
    b_train, _ = split(data, 0.5, seed=1)
    assert np.array_equal(a_train.features.values, b_train.features.values)
    with pytest.raises(ValueError):
        split(data, 0.01, seed=0)
    with pytest.raises(ValueError):
        split(data, 0.99, seed=0)


@pytest.mark.parametrize("fraction", [np.nan, np.inf, -np.inf])
def test_split_rejects_non_finite_fraction(fraction):
    data = random_dataset(np.random.default_rng(5), n=10)
    with pytest.raises(ValueError, match="^train_fraction must be finite"):
        split(data, fraction, seed=0)


@pytest.mark.parametrize("fraction", [1e308, -1e308, 1.5, -0.5])
def test_split_fraction_outside_unit_interval_leaves_an_empty_side(fraction):
    # 1e308 * n overflows to inf; the fraction must still be named
    data = random_dataset(np.random.default_rng(5), n=10)
    with pytest.raises(ValueError, match=re.escape(f"train_fraction {fraction!r} leaves")):
        split(data, fraction, seed=0)


def test_take_instances_orders_columns():
    rng = np.random.default_rng(6)
    data = random_dataset(rng, n=5)
    sub = take_instances(data, [3, 0])
    assert np.array_equal(sub.features.values[:, 0], data.features.values[:, 3])
    assert np.array_equal(sub.labels.values[:, 1], data.labels.values[:, 0])
    # a fraction is refused, not truncated to an index
    with pytest.raises(ValueError, match="^instance indices must be integers$"):
        take_instances(data, [0.7, 2.2])
    # and indices that are not one row are refused before any column is cut
    for indices in (3, [[3, 0]]):
        with pytest.raises(ValueError, match="^instance indices must be 1-D$"):
            take_instances(data, indices)
