"""Memory regression tests of the file codecs and the pipeline stages.

Each file is read and written a line at a time, so what a call holds at
its peak, beyond the arrays it returns, must stay below the size of the
file itself: a codec that held the file's text, or a list of its lines,
would exceed it.  A stage's peak must stay a small multiple of the data
it works on, not of a fixed-size scratch block.
The shapes are the benchmark's: the corel-pipeline training file and
hidden labels, and the large-k model.
"""

import tracemalloc

import numpy as np
import pytest

from glocal import cli
from glocal.clustering import kmeans
from glocal.data import (
    FeatureMatrix,
    LabelMatrix,
    apply_mask,
    load_matrix,
    make_synthetic,
    save_gml,
    save_matrix,
    take_instances,
)
from glocal.model import GlocalModel, Hyperparams, load_model, save_model
from glocal.solver import fit
from test_codecs import decoded


def peak_beyond(result_bytes, call):
    """Run call() under tracemalloc; its peak bytes less result_bytes(result)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - result_bytes(result)


# corel-pipeline's shape: l=374, n=400, d=499, 30% of labels observed
COREL = dict(l=374, n=400, d=499, k_true=5, noise=0.3, seed=1)


@pytest.fixture(scope="module")
def corel_data():
    data = make_synthetic(**COREL)
    return data, apply_mask(data, rho=30, seed=1)


@pytest.fixture(scope="module")
def corel_files(tmp_path_factory, corel_data):
    data, masked = corel_data
    root = tmp_path_factory.mktemp("corel")
    files = {root / "full.gml": data, root / "train.gml": masked}
    # as synth writes them: both files in one pass over the shared features
    held = peak_beyond(lambda _: 0, lambda: save_gml(files, comments=["corel-pipeline"]))
    save_matrix(data.labels.values - masked.labels.values, root / "hidden.txt",
                comments=["corel-pipeline"])
    return root / "train.gml", root / "hidden.txt", held


def test_saving_gml_files_holds_no_file_text(corel_files):
    path, _, held = corel_files
    assert held < path.stat().st_size


def test_loading_with_the_bias_row_holds_the_features_once_more(
        corel_data, corel_files, monkeypatch):
    # one traced load in two phases.  The decode, whose peak is read as
    # the bias row is added, holds beyond the arrays it returns one line
    # and its tokens, not the file's text nor its converted tokens:
    # 0.088 x the features (140 kB) measured, against 0.095 x when it
    # held a 16 K-character batch of lines and 0.34 x when each batch of
    # tokens was converted with numpy calls.
    # The stacked array is the new matrix's own: beyond the result, the
    # decoded features and the decoder's scratch, not a copy of the stack
    path = corel_files[0]
    cache = path.with_name(f".{path.name}.glocal-cache")
    cache.unlink(missing_ok=True)  # a miss: the file is decoded
    decode_peaks = []
    with_bias = FeatureMatrix.with_bias

    def traced_with_bias(features):
        decode_peaks.append(tracemalloc.get_traced_memory()[1])
        return with_bias(features)

    monkeypatch.setattr(FeatureMatrix, "with_bias", traced_with_bias)
    held = peak_beyond(lambda d: d.features.values.nbytes + d.labels.values.nbytes,
                       lambda: cli._load_dataset(path, add_bias=True))
    masked = corel_data[1]
    features_bytes = masked.features.values.nbytes
    [decode_peak] = decode_peaks
    assert decode_peak - (features_bytes + masked.labels.values.nbytes) < 0.2 * features_bytes
    assert held < 1.5 * features_bytes
    assert cache.is_file()


def test_a_second_load_reads_the_cached_arrays_uncopied(corel_files):
    # the first load decodes the file and writes its cache; the second
    # reads the arrays from the cache and adopts them, holding beyond them
    # the isfinite check's bool copy of the features: 0.13 x the features
    # (203 kB) measured, against 0.088 x (140 kB) for the first load, which
    # decodes one line at a time, and 1.13 x with a copy of the features
    path = corel_files[0]
    data = cli._load_dataset(path)
    held = peak_beyond(lambda d: d.features.values.nbytes + d.labels.values.nbytes,
                       lambda: cli._load_dataset(path))
    assert held < 0.25 * data.features.values.nbytes


def test_kmeans_peak_tracks_the_features(corel_files):
    # a copy of the points and one capped difference buffer, whatever g is
    X = cli._load_dataset(corel_files[0]).features
    held = peak_beyond(lambda _: 0, lambda: kmeans(X, 8, seed=1))
    assert held <= 3 * X.values.nbytes


def test_eval_peak_tracks_the_scores(corel_files, tmp_path):
    # the hidden labels are read as a matrix and cast to int8 (2.6 x S
    # with the scores held) before anything is ranked, so the ranking sets
    # the peak, and it keeps one int64 rank array: 3.60 x S measured,
    # against 3.98 x S when a sidecar's entries were read and 4.54 x S with
    # 1-based ranks and their copies
    _, hidden, _ = corel_files
    S = np.random.default_rng(1).standard_normal((374, 400))
    scores = tmp_path / "scores.txt"
    save_matrix(S, scores)
    argv = ["eval", "--scores", str(scores), "--hidden", str(hidden),
            "--out", str(tmp_path / "report.csv")]
    assert cli.main(argv) == 0  # warm up: imports and first-call caches
    held = peak_beyond(lambda _: 0, lambda: cli.main(argv))
    assert held <= 3.85 * S.nbytes


def test_loading_a_matrix_holds_it_once(tmp_path):
    # corel-pipeline's scores, decoded: the values are converted one at a
    # time into one growing array, not concatenated from per-line parts
    # at the end: 0.38 x the matrix measured, against 0.27 x when each
    # batch of lines was converted with one numpy call into a bytearray
    S = np.random.default_rng(2).standard_normal((374, 400))
    scores = tmp_path / "scores.txt"
    save_matrix(S, scores)
    held = peak_beyond(lambda M: M.nbytes, lambda: decoded(load_matrix, scores))
    assert held <= 0.6 * S.nbytes


def test_masking_peak_tracks_the_label_positions(corel_data):
    # rng.choice's int64 draw of the kept positions, the bool mask and
    # the int8 masked labels hold the peak: 10.41 bytes per label
    # position measured, against 26.5 when the hidden entries were made
    # as (m, 3) int64 rows too
    data = corel_data[0]
    held = peak_beyond(lambda _: 0, lambda: apply_mask(data, rho=30, seed=1))
    assert held <= 11.5 * data.l * data.n


def test_taking_instances_copies_each_subset_once(corel_data):
    # the fancy-indexed subsets are the containers' own arrays: a second
    # copy of the features alone would hold their bytes again
    data = corel_data[0]
    held = peak_beyond(lambda d: d.features.values.nbytes + d.labels.values.nbytes,
                       lambda: take_instances(data, np.arange(0, data.n, 2)))
    assert held < 0.5 * (data.d * (data.n // 2) * 8)


def test_making_a_synthetic_set_holds_its_scores_twice_at_most(corel_data):
    # the features are drawn into the matrix itself and the labels made
    # as int8: beyond X and Y, the l x n scores and one l x n noise draw
    # (numpy reuses the draw's buffer for the noisy sum)
    scores_nbytes = COREL["l"] * COREL["n"] * 8
    held = peak_beyond(lambda d: d.features.values.nbytes + d.labels.values.nbytes,
                       lambda: make_synthetic(**COREL))
    assert held <= 3 * scores_nbytes


def test_checking_a_label_matrix_takes_no_scratch(corel_data):
    # the entry check is a range check: beyond its own copy, a label
    # matrix holds no array of the matrix's size while it is checked
    Y = corel_data[0].labels.values.copy()
    held = peak_beyond(lambda L: L.values.nbytes, lambda: LabelMatrix(Y))
    assert held <= 0.1 * Y.nbytes


def _blocks(model):
    return (model.U, model.V, model.W, *model.factors)


def test_fitting_frees_each_old_block_once_it_is_replaced():
    # large-k's shape: a sweep holds the old and new copy of the block it
    # updates, not the whole previous model next to the new one; a Hessian
    # action frees its masked l x n product before it scales, and a CG
    # step frees H(P) before it moves the iterate: 1.61 x the model
    # measured, against 1.80 x with those temporaries held
    data = make_synthetic(l=200, n=400, d=30, k_true=5, noise=0.3, seed=1)
    masked = apply_mask(data, rho=30, seed=1)
    part = kmeans(masked.features, 4, seed=1)
    hp = Hyperparams(k=300, warm_iters=1, outer_iters=1, tol=0.0, seed=1)
    model, _ = fit(masked, part, hp)  # warm up: imports and first-call caches
    model_bytes = sum(B.nbytes for B in _blocks(model))
    held = peak_beyond(lambda _: model_bytes, lambda: fit(masked, part, hp))
    assert held <= 1.7 * model_bytes


def test_fitting_holds_the_labels_once(corel_data):
    # corel-pipeline's shape at k=5, where the labels outweigh the model:
    # the fit reads the dataset's int8 labels through a bool mask, so
    # beyond the model it holds the stacked feature factor (one copy of
    # X), the mask and one l x n float64 array at a time (a masked product
    # or a label cast): 3.24 MB measured against a bound of 3.99 MB, which
    # has no room for float64 copies of Y and J (2.39 MB more)
    masked = corel_data[1]
    part = kmeans(masked.features, 4, seed=1)
    hp = Hyperparams(k=5, warm_iters=1, outer_iters=1, tol=0.0, seed=1)
    model, _ = fit(masked, part, hp)  # warm up: imports and first-call caches
    model_bytes = sum(B.nbytes for B in _blocks(model))
    held = peak_beyond(lambda _: model_bytes, lambda: fit(masked, part, hp))
    label_bytes = masked.l * masked.n * 8
    assert held <= masked.features.values.nbytes + 2 * label_bytes


def test_saving_and_loading_a_large_model_holds_no_file_text(tmp_path):
    # large-k's shape: l=200, d=30, k=300, n=400, g=4
    rng = np.random.default_rng(3)
    l, d, k, n, g = 200, 30, 300, 400, 4
    model = GlocalModel(U=rng.standard_normal((l, k)), V=rng.standard_normal((k, n)),
                        W=rng.standard_normal((d, k)),
                        factors=tuple(rng.standard_normal((l, k)) for _ in range(g)))
    path = tmp_path / "model.txt"
    held = peak_beyond(lambda _: 0, lambda: save_model(model, path))
    size = path.stat().st_size
    assert held < size
    held = peak_beyond(lambda m: sum(B.nbytes for B in _blocks(m)), lambda: load_model(path))
    assert held < size
    back = load_model(path)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_blocks(back), _blocks(model)))
