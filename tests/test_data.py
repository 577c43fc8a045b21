import re
from pathlib import Path

import numpy as np
import pytest

from glocal.data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    MaskSpec,
    apply_mask,
    load_gml,
    parse_gml,
    round_half_away,
    save_gml,
    split,
    take_instances,
)


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


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(2.4) == 2
    assert round_half_away(0.0) == 0
    # the masking count from the docs: 30% of 10x100
    assert round_half_away(30 / 100 * 10 * 100) == 300


def test_parse_minimal():
    text = "2 3 3\n+:1|-:2|1:0.5 3:1.0\n+:2|-:|2:2.0\n"
    data = parse_gml(text)
    assert (data.n, data.d, data.l) == (2, 3, 3)
    assert data.labels.values[:, 0].tolist() == [1, -1, 0]
    assert data.labels.values[:, 1].tolist() == [0, 1, 0]
    assert data.features.values[:, 0].tolist() == [0.5, 0.0, 1.0]
    assert data.features.values[:, 1].tolist() == [0.0, 2.0, 0.0]


def test_parse_skips_comments():
    text = "# made by a tool\n2 3 3\n# another note\n+:1|-:|\n+:|-:3|1:4.25\n"
    data = parse_gml(text)
    assert data.n == 2
    assert data.features.values[0, 1] == 4.25


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_gml_example_parses(doc):
    text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
    # the fenced block under the File formats entry for datasets
    example = text.split("**Dataset (`.gml`)**", 1)[1].split("```\n", 2)[1]
    data = parse_gml(example)
    assert (data.n, data.d, data.l) == (3, 4, 2)
    assert data.labels.values.T.tolist() == [[1, -1], [-1, -1], [-1, 1]]
    assert data.features.values[:, 1].tolist() == [0.0, 2.0, 0.0, 0.0]


def test_indicator_tracks_values():
    data = parse_gml("2 3 3\n+:1|-:2|1:0.5 3:1.0\n+:2|-:|2:2.0\n")
    assert np.array_equal(data.labels.indicator, (data.labels.values != 0))


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
        parse_gml(text)


def test_parse_wrong_instance_count():
    with pytest.raises(GmlFormatError, match="expected 3 instance lines"):
        parse_gml("3 2 2\n+:|-:|\n+:|-:|\n")


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        data = random_dataset(rng, l=rng.integers(2, 7), n=rng.integers(1, 9),
                              d=rng.integers(1, 6))
        save_gml({tmp_path / "d.gml": data})
        back = load_gml(tmp_path / "d.gml")
        assert np.array_equal(back.features.values, data.features.values)
        assert np.array_equal(back.labels.values, data.labels.values)


def test_roundtrip_full_precision(tmp_path):
    # awkward floats must survive the text round trip bit-exactly
    X = np.array([[1 / 3, 1e-17], [np.pi, -2.5e300]])
    Y = np.array([[1, -1], [0, 1]])
    data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    save_gml({tmp_path / "d.gml": data})
    back = load_gml(tmp_path / "d.gml")
    assert np.array_equal(back.features.values, X)


def test_write_emits_comments(tmp_path):
    data = parse_gml("1 2 2\n+:1|-:2|1:1.0\n")
    text = gml_text(tmp_path, data, comments=["seed=5"])
    assert text.splitlines()[0] == "# seed=5"
    assert parse_gml(text).n == 1


@pytest.mark.parametrize("full_first", [True, False])
def test_datasets_sharing_features_write_as_from_fresh_copies(tmp_path, full_first):
    # writing two datasets that share one matrix, in either order or in
    # one save_gml pass, must give the bytes each gives from a matrix of
    # its own
    rng = np.random.default_rng(11)
    full = random_dataset(rng, l=6, n=9, d=5, zero_frac=0.0)
    masked, _ = apply_mask(full, MaskSpec(rho=40.0, seed=2))
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
    # two paths naming one file: it gets the later dataset
    save_gml({str(paths[0]): full, f"{tmp_path}/./full.gml": masked})
    assert paths[0].read_text(encoding="utf-8") == fresh[1]
    with pytest.raises(ValueError, match="must share one FeatureMatrix"):
        save_gml({paths[0]: full, paths[1]: Dataset(FeatureMatrix(full.features.values),
                                                    full.labels)})


def test_arrays_read_only():
    data = parse_gml("1 2 2\n+:1|-:2|1:1.0\n")
    with pytest.raises(ValueError):
        data.features.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.labels.values[0, 0] = 0


def test_label_matrix_validation():
    with pytest.raises(ValueError):
        LabelMatrix(np.array([[1, 0, -1]]))  # l = 1
    with pytest.raises(ValueError):
        LabelMatrix(np.array([[2, 0], [0, 1]]))  # bad entry


def test_dataset_count_mismatch():
    with pytest.raises(ValueError):
        Dataset(FeatureMatrix(np.zeros((2, 3))), LabelMatrix(np.zeros((2, 4))))


def test_mask_spec_validation():
    with pytest.raises(ValueError):
        MaskSpec(rho=-1, seed=0)
    with pytest.raises(ValueError):
        MaskSpec(rho=100.5, seed=0)


def test_mask_counts_fully_observed():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 100))
    Y = rng.choice([-1, 1], size=(10, 100))
    data = Dataset(FeatureMatrix(X), LabelMatrix(Y))
    masked, hidden = apply_mask(data, MaskSpec(rho=30, seed=4))
    assert int(masked.labels.indicator.sum()) == 300
    assert len(hidden) == 700


def test_mask_extremes():
    rng = np.random.default_rng(1)
    data = random_dataset(rng)
    full, hidden = apply_mask(data, MaskSpec(rho=100, seed=0))
    assert np.array_equal(full.labels.values, data.labels.values)
    assert np.array_equal(hidden, np.empty((0, 3), dtype=np.int64))
    none, hidden = apply_mask(data, MaskSpec(rho=0, seed=0))
    assert not none.labels.values.any()
    assert len(hidden) == int(np.count_nonzero(data.labels.values))


def test_mask_never_flips_kept_values():
    rng = np.random.default_rng(2)
    data = random_dataset(rng, zero_frac=0.5)
    masked, hidden = apply_mask(data, MaskSpec(rho=40, seed=9))
    Y, M = data.labels.values, masked.labels.values
    # every surviving value matches the original, hidden ones were observed
    assert np.all((M == Y) | (M == 0))
    for j, i, v in hidden:
        assert Y[j, i] == v and v != 0 and M[j, i] == 0
    # hidden list is exactly the observations that vanished
    assert len(hidden) == int(np.count_nonzero(Y)) - int(np.count_nonzero(M))


def test_mask_deterministic():
    rng = np.random.default_rng(3)
    data = random_dataset(rng)
    a1, h1 = apply_mask(data, MaskSpec(rho=50, seed=11))
    a2, h2 = apply_mask(data, MaskSpec(rho=50, seed=11))
    b, _ = apply_mask(data, MaskSpec(rho=50, seed=12))
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
