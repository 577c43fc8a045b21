import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocal import cli, solver
from glocal.cli import main, parse_grid
from glocal.clustering import kmeans
from glocal.data import (
    FeatureMatrix,
    apply_mask,
    load_gml,
    load_matrix,
    make_synthetic,
    save_gml,
    save_matrix,
)
from glocal.metrics import ranking_loss
from glocal.model import GlocalModel, Hyperparams, load_model, save_model, score
from glocal.solver import fit
from test_codecs import decoded, refuse_decoding
from test_data import refuse_feature_block
from test_solver import hyperparams_domain


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_files(tmp_path):
    full = tmp_path / "full.gml"
    masked = tmp_path / "masked.gml"
    hidden = tmp_path / "hidden.txt"
    rc = run(
        "synth", "--labels", 6, "--instances", 40, "--features", 5,
        "--latent-k", 2, "--rho", 60, "--seed", 7,
        "--out-full", full, "--out-masked", masked, "--out-hidden", hidden,
    )
    assert rc == 0
    return full, masked, hidden


def test_make_synthetic_planted_structure():
    data = make_synthetic(l=5, n=30, d=4, k_true=2, noise=0.0, seed=0)
    assert (data.l, data.n, data.d) == (5, 30, 4)
    assert set(np.unique(data.labels.values)) <= {-1, 1}
    # deterministic in the seed
    again = make_synthetic(l=5, n=30, d=4, k_true=2, noise=0.0, seed=0)
    assert np.array_equal(again.features.values, data.features.values)
    assert np.array_equal(again.labels.values, data.labels.values)
    other = make_synthetic(l=5, n=30, d=4, k_true=2, noise=0.0, seed=1)
    assert not np.array_equal(other.labels.values, data.labels.values)
    with pytest.raises(ValueError):
        make_synthetic(l=1, n=5, d=2, k_true=1, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(l=2, n=5, d=2, k_true=1, noise=-0.5, seed=0)


@pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
def test_make_synthetic_rejects_non_finite_noise(noise):
    with pytest.raises(ValueError, match="^noise must be finite"):
        make_synthetic(l=3, n=6, d=2, k_true=1, noise=noise, seed=0)


def test_make_synthetic_huge_noise_keeps_label_signs():
    # noise * N(0, 1) overflows to +-inf at 1e308; the sign must survive,
    # with no overflow warning (tier-1 turns RuntimeWarnings into errors)
    huge = make_synthetic(l=6, n=40, d=3, k_true=2, noise=1e308, seed=4).labels.values
    large = make_synthetic(l=6, n=40, d=3, k_true=2, noise=1e300, seed=4).labels.values
    assert np.array_equal(huge, large)
    assert (huge == 1).any() and (huge == -1).any()


def test_hidden_labels_file_holds_the_masked_entries(tmp_path, synth_files):
    # synth's and mask's hidden-label matrices hold exactly the labels the
    # mask hid, full less masked, and 0 at every other position
    full, masked, hidden = synth_files
    data = make_synthetic(l=6, n=40, d=5, k_true=2, noise=0.0, seed=7)
    want = data.labels.values - apply_mask(data, rho=60, seed=7).labels.values
    assert want.any() and np.array_equal(load_matrix(hidden), want)
    # masking a partly observed dataset hides only what it observed
    out, hid = tmp_path / "re-masked.gml", tmp_path / "re-hidden.txt"
    assert run("mask", "--input", masked, "--rho", 50, "--seed", 3,
               "--out", out, "--hidden-out", hid) == 0
    data = load_gml(masked)
    want = data.labels.values - apply_mask(data, rho=50, seed=3).labels.values
    assert want.any() and np.array_equal(load_matrix(hid), want)
    lines = hid.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# glocal mask input={masked} rho=50.0 seed=3"
    assert lines[1] == "6 40"


def test_the_hidden_labels_cache_holds_a_byte_a_label(tmp_path, monkeypatch):
    # corel-pipeline's shape: the int8 hidden labels are cached as int8,
    # l * n bytes and a header, and read back as load_matrix decodes them
    l, n = 374, 400
    out = [tmp_path / name for name in ("full.gml", "train.gml", "hidden.txt")]
    assert run("synth", "--labels", l, "--instances", n, "--features", 499,
               "--latent-k", 5, "--noise", 0.3, "--rho", 30, "--seed", 1,
               "--out-full", out[0], "--out-masked", out[1], "--out-hidden", out[2]) == 0
    cache = tmp_path / ".hidden.txt.glocal-cache"
    assert cache.stat().st_size <= l * n + 1024
    want = decoded(load_matrix, out[2])
    refuse_decoding(monkeypatch)
    got = load_matrix(out[2])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    path = tmp_path / "m.txt"
    save_matrix(A, path, comments=["x"])
    assert np.array_equal(decoded(load_matrix, path), A)
    with pytest.raises(ValueError, match="header"):
        load_matrix(io.StringIO("# only a comment\n"))
    with pytest.raises(ValueError, match="expected 6 values"):
        load_matrix(io.StringIO("2 3\n1 2 3 4 5\n"))
    with pytest.raises(ValueError, match="bad matrix header"):
        load_matrix(io.StringIO("x 2\n1 2\n"))
    with pytest.raises(ValueError, match="bad matrix header"):
        load_matrix(io.StringIO("-1 -1\n5\n"))
    # an empty matrix with a side numpy cannot hold
    for header in ("99999999999999999999 0", "4611686018427387904 0",
                   "0 99999999999999999999"):
        with pytest.raises(ValueError, match=f"^bad matrix header '{header}'"):
            load_matrix(io.StringIO(header + "\n"))


def test_parse_grid():
    axes = parse_grid("lambda3=0.1,1;k=3,5;g=2")
    assert axes == {"lambda3": [0.1, 1.0], "k": [3, 5], "g": [2]}
    with pytest.raises(ValueError, match="bad grid axis"):
        parse_grid("rho=1,2")
    with pytest.raises(ValueError, match="duplicate"):
        parse_grid("k=1;k=2")
    with pytest.raises(ValueError, match="bad grid values"):
        parse_grid("k=one")
    # parse_grid reads the numbers; grid_search refuses a g below 1
    assert parse_grid("g=0,2") == {"g": [0, 2]}


def test_synth_outputs_consistent(synth_files):
    full, masked, hidden = synth_files
    full_ds = load_gml(full)
    masked_ds = load_gml(masked)
    truth = load_matrix(hidden)
    assert full_ds.n == masked_ds.n == 40
    total = full_ds.l * full_ds.n
    kept = int(masked_ds.labels.indicator.sum())
    assert kept == round(0.60 * total)
    assert np.count_nonzero(truth) == total - kept
    at = truth != 0
    assert not masked_ds.labels.values[at].any()
    assert np.array_equal(full_ds.labels.values[at], truth[at])
    assert full.read_text(encoding="utf-8").startswith(
        "# glocal synth labels=6 instances=40 features=5 latent_k=2 noise=0.0"
        " rho=60.0 seed=7\n")


# blake2b digests (16 bytes) of synth's files with their '#' lines
# dropped: (l, n, d, k, noise, rho, seed) -> full.gml, train.gml,
# hidden.txt.  The GML digests were frozen from the writer that formatted
# every id of every line where it wrote it, and the larger shape crosses
# the edges of its batches of instances; the hidden.txt ones from the 'l n' header and rows of
# str() of each entry of the full labels less the masked ones, both as
# the reference GML parser reads them.
SYNTH_DIGESTS = {
    (3, 9, 2, 1, 0, 50, 1): ("3f90655916fe96319d561e219227e252",
                             "36a539c388ada628abe588fc20fbd494",
                             "fd4655df2bd4c26348779711771c3482"),
    (40, 200, 10, 3, 0.3, 30, 7): ("2986be13da9e586cda5078780b230437",
                                   "5a83fbb05a79ab9f1f17693ddad649b0",
                                   "a52dc50b1042e487c10f8c63afc9a81c"),
}


@pytest.mark.parametrize("shape", SYNTH_DIGESTS)
def test_synth_files_are_frozen(tmp_path, shape):
    l, n, d, k, noise, rho, seed = shape
    files = [tmp_path / name for name in ("full.gml", "train.gml", "hidden.txt")]
    assert run("synth", "--labels", l, "--instances", n, "--features", d,
               "--latent-k", k, "--noise", noise, "--rho", rho, "--seed", seed,
               "--out-full", files[0], "--out-masked", files[1],
               "--out-hidden", files[2]) == 0
    data = [b"".join(ln for ln in f.read_bytes().splitlines(keepends=True)
                     if not ln.startswith(b"#")) for f in files]
    digests = tuple(hashlib.blake2b(b, digest_size=16).hexdigest() for b in data)
    assert digests == SYNTH_DIGESTS[shape]


def test_cli_runs_are_deterministic(tmp_path, synth_files):
    full, masked, hidden = synth_files
    full2 = tmp_path / "again.gml"
    rc = run(
        "synth", "--labels", 6, "--instances", 40, "--features", 5,
        "--latent-k", 2, "--rho", 60, "--seed", 7,
        "--out-full", full2, "--out-masked", tmp_path / "m2.gml",
        "--out-hidden", tmp_path / "h2.txt",
    )
    assert rc == 0
    assert full2.read_bytes() == full.read_bytes()


def test_mask_and_split_commands(tmp_path, synth_files):
    full, _, _ = synth_files
    out = tmp_path / "re-masked.gml"
    hid = tmp_path / "re-hidden.txt"
    assert run("mask", "--input", full, "--rho", 25, "--seed", 3,
               "--out", out, "--hidden-out", hid) == 0
    masked = load_gml(out)
    assert int(masked.labels.indicator.sum()) == round(0.25 * 6 * 40)

    tr = tmp_path / "train.gml"
    te = tmp_path / "test.gml"
    assert run("split", "--input", full, "--fraction", 0.75, "--seed", 1,
               "--train-out", tr, "--test-out", te) == 0
    train = load_gml(tr)
    test = load_gml(te)
    assert train.n == 30 and test.n == 10
    assert train.d == test.d == 5


def test_cluster_train_predict_eval_pipeline(tmp_path, synth_files, capsys):
    full, masked, hidden = synth_files
    part = tmp_path / "groups.txt"
    assert run("cluster", "--input", masked, "--groups", 3, "--seed", 0,
               "--out", part) == 0
    lines = [
        ln for ln in part.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")
    ]
    assert len(lines) == 40
    assert {int(ln.split()[1]) for ln in lines} == {1, 2, 3}

    model_path = tmp_path / "fit.model"
    trace_path = tmp_path / "trace.csv"
    assert run("train", "--input", masked, "--partition", part,
               "--model-out", model_path, "--trace", trace_path,
               "--latent-k", 2, "--outer-iters", 10, "--warm-iters", 5,
               "--seed", 0) == 0
    model = load_model(model_path)
    assert model.g == 3 and model.k == 2 and model.l == 6
    rows = [
        ln for ln in trace_path.read_text(encoding="utf-8").splitlines()
        if not ln.startswith("#")
    ]
    assert rows[0] == "iter,objective"
    objs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))

    scores_path = tmp_path / "scores.txt"
    labels_path = tmp_path / "labels.txt"
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path, "--labels-out", labels_path) == 0
    S = load_matrix(scores_path)
    L = load_matrix(labels_path)
    assert S.shape == L.shape == (6, 40)
    assert np.array_equal(L, np.where(S > 0, 1.0, -1.0))

    report_hidden = tmp_path / "report-hidden.csv"
    assert run("eval", "--scores", scores_path, "--hidden", hidden,
               "--out", report_hidden) == 0
    report_truth = tmp_path / "report-truth.csv"
    assert run("eval", "--scores", scores_path, "--truth", full,
               "--out", report_truth) == 0
    header = report_truth.read_text(encoding="utf-8").splitlines()
    assert header[1] == "rkl,auc,cvg,ap,skipped_instances,skipped_labels"

    # the truth-file route must agree with computing the metric directly
    truth = load_gml(full).labels.values
    want = ranking_loss(S, truth)
    got = float(header[2].split(",")[0])
    assert got == pytest.approx(want, abs=1e-12)
    out = capsys.readouterr().out
    assert "eval: rkl=" in out


def test_documented_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # the fenced sh block under "## Command line", synth to eval --hidden
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["glocal", c] for c in ("synth", "cluster", "train", "predict", "eval")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, capsys.readouterr().err
    assert (tmp_path / "report.csv").is_file()


def test_documented_rise_stops_the_fit(tmp_path, capsys):
    # README's "Known behaviour": at lambda2 = 0 with huge lambda and
    # lambda3 a W step can raise the objective.  Which seeds rise moves
    # with rounding, so README promises only that some of seeds 0-19 rise
    # and that a fit whose trace rises stops at that sweep, as converged
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    known = text.split("## Known behaviour", 1)[1]
    gml, part, trace = tmp_path / "rise.gml", tmp_path / "groups.txt", tmp_path / "trace.csv"
    gml.write_text(known.split("```\n")[1], encoding="utf-8")
    part.write_text("1 1\n2 2\n3 1\n4 2\n5 1\n", encoding="utf-8")  # 1 2 1 2 1
    flags = shlex.split(re.search(r"trained with `([^`]*)`", known).group(1))
    risen = 0
    for seed in range(20):
        assert run("train", "--input", gml, "--partition", part, *flags, "--seed", seed,
                   "--model-out", tmp_path / "m.model", "--trace", trace) == 0
        converged = "(converged=True)" in capsys.readouterr().out
        rows = [ln for ln in trace.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")]
        objs = [float(row.split(",")[1]) for row in rows[1:]]
        rises = [t for t in range(1, len(objs)) if objs[t] > objs[t - 1]]
        if rises:
            risen += 1
            assert rises == [len(objs) - 1] and converged, (seed, objs)
    assert risen > 0


def test_eval_requires_exactly_one_truth_source(tmp_path, synth_files, capsys):
    full, _, hidden = synth_files
    scores = tmp_path / "s.txt"
    save_matrix(np.zeros((6, 40)), scores)
    out = tmp_path / "r.csv"
    assert run("eval", "--scores", scores, "--out", out) == 1
    assert run("eval", "--scores", scores, "--truth", full,
               "--hidden", hidden, "--out", out) == 1
    err = capsys.readouterr().err
    assert "exactly one of --truth or --hidden" in err


@pytest.mark.parametrize("text, error", [
    # one instance more than the scores
    ("2 4\n0 1 0 0\n0 0 0 -1\n", "scores (2, 3) and truth (2, 4) must be equal 2-D shapes"),
    ("2 3\n0 2 0\n0 0 -1\n", "label entries must be -1, 0 or +1"),
    ("2 3\n0 0.5 0\n0 0 -1\n", "label entries must be -1, 0 or +1"),
    # the earlier sidecar format: "1 2" reads as the header
    ("# glocal synth\n1 2 1\n2 3 -1\n", "expected 2 values, found 4"),
], ids=["shape", "two", "half", "sidecar"])
def test_eval_refuses_a_hidden_matrix_it_cannot_score(tmp_path, capsys, text, error):
    scores, hidden, out = tmp_path / "s.txt", tmp_path / "h.txt", tmp_path / "r.csv"
    save_matrix(np.zeros((2, 3)), scores)
    hidden.write_text(text, encoding="utf-8")
    assert run("eval", "--scores", scores, "--hidden", hidden, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_train_with_grid_search(tmp_path, synth_files, capsys):
    _, masked, _ = synth_files
    model_path = tmp_path / "grid.model"
    assert run("train", "--input", masked, "--model-out", model_path,
               "--grid", "lambda3=0,0.5;g=2", "--latent-k", 2,
               "--outer-iters", 4, "--warm-iters", 3, "--seed", 0) == 0
    out = capsys.readouterr().out
    assert "grid: selected" in out and "cv ranking loss" in out
    model = load_model(model_path)
    assert model.g == 2
    # the stamp names the grid asked for, the provenance what was fitted
    stamp = model_path.read_text(encoding="utf-8").splitlines()[1]
    assert stamp.startswith(f"# glocal train input={masked} grid=lambda3=0,0.5;g=2 ")
    assert model.provenance["lambda3"] in ("0.0", "0.5")


def test_train_grid_with_fixed_partition_cannot_vary_g(
    tmp_path, synth_files, capsys
):
    _, masked, _ = synth_files
    part = tmp_path / "p.txt"
    assert run("cluster", "--input", masked, "--groups", 2, "--seed", 0,
               "--out", part) == 0
    rc = run("train", "--input", masked, "--partition", part,
             "--model-out", tmp_path / "m.model", "--grid", "g=2,3")
    assert rc == 1
    assert "cannot vary g" in capsys.readouterr().err


def test_train_reports_a_feature_block_it_cannot_allocate_in_one_line(
    tmp_path, monkeypatch, capsys
):
    path, model_path = tmp_path / "d.gml", tmp_path / "m.model"
    path.write_text("3 5 2\n+:1|-:2|\n+:2|-:1|\n+:1|-:2|\n", encoding="utf-8")
    refuse_feature_block(monkeypatch, (5, 3))
    assert run("train", "--input", path, "--model-out", model_path) == 1
    assert capsys.readouterr().err == "error: Unable to allocate an array with shape (5, 3)\n"
    assert not model_path.exists()


def test_train_grid_rejects_a_group_count_below_one(tmp_path, synth_files, capsys):
    _, masked, _ = synth_files
    rc = run("train", "--input", masked, "--model-out", tmp_path / "m.model",
             "--grid", "g=0,2")
    assert rc == 1
    assert capsys.readouterr().err == "error: g must be >= 1\n"


def test_train_grid_names_the_first_cause_when_every_combination_fails(
    tmp_path, synth_files, capsys
):
    _, masked, _ = synth_files
    rc = run("train", "--input", masked, "--model-out", tmp_path / "m.model",
             "--grid", "g=100000")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no grid combination produced a usable CV score")
    assert err.count("\n") == 1 and "g must lie in 1.." in err


def test_train_grid_replaces_the_flags_it_varies(tmp_path, synth_files, capsys):
    # a flag the grid varies is not validated; one it keeps still is
    _, masked, _ = synth_files
    model_path = tmp_path / "m.model"
    assert run("train", "--input", masked, "--model-out", model_path,
               "--latent-k", 0, "--grid", "k=2", "--outer-iters", 2,
               "--warm-iters", 2) == 0
    assert load_model(model_path).k == 2
    capsys.readouterr()
    assert run("train", "--input", masked, "--model-out", model_path,
               "--latent-k", 0, "--grid", "lambda3=0,0.5") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_train_grid_under_a_partition_file_never_runs_kmeans(
    tmp_path, synth_files, monkeypatch
):
    # cross-validation restricts the file's groups to each fold
    _, masked, _ = synth_files
    part = tmp_path / "p.txt"
    assert run("cluster", "--input", masked, "--groups", 4, "--seed", 0,
               "--out", part) == 0
    calls = []

    def counting_kmeans(*args, **kwargs):
        calls.append(args[1])
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(cli, "kmeans", counting_kmeans)
    monkeypatch.setattr(solver, "kmeans", counting_kmeans, raising=False)
    model_path = tmp_path / "m.model"
    assert run("train", "--input", masked, "--partition", part,
               "--model-out", model_path, "--grid", "lambda3=0,0.5",
               "--latent-k", 2, "--outer-iters", 2, "--warm-iters", 2) == 0
    assert calls == []
    assert load_model(model_path).g == 4


def _scores_of(model, gml, bias):
    """score(model, features) on the file's features, with the bias row or not."""
    X = load_gml(gml).features.values
    if bias:
        X = np.vstack([X, np.ones((1, X.shape[1]))])
    return score(model, FeatureMatrix(X))


def test_add_bias_appends_constant_feature(tmp_path, synth_files):
    _, masked, _ = synth_files
    model_path = tmp_path / "bias.model"
    assert run("train", "--input", masked, "--model-out", model_path,
               "--add-bias", "--latent-k", 2, "--outer-iters", 2,
               "--warm-iters", 2) == 0
    assert load_model(model_path).d == 6  # 5 features plus the bias row
    # predict takes the bias row from the model, with no flag of its own
    scores_path = tmp_path / "s.txt"
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path) == 0
    assert load_matrix(scores_path).shape == (6, 40)
    with pytest.raises(SystemExit):
        run("predict", "--model", model_path, "--input", masked,
            "--scores-out", scores_path, "--add-bias")


@pytest.mark.parametrize("bias", [True, False])
def test_train_records_provenance_and_predict_checks_add_bias(
    tmp_path, synth_files, bias
):
    _, masked, _ = synth_files
    model_path = tmp_path / "m.model"
    bias_flag = ["--add-bias"] if bias else []
    assert run("train", "--input", masked, "--model-out", model_path, *bias_flag,
               "--latent-k", 2, "--groups", 2, "--lambda3", 0.25, "--outer-iters", 2,
               "--warm-iters", 1, "--seed", 4) == 0
    model = load_model(model_path)
    assert model.provenance == {
        "k": "2", "lambda_": "1.0", "lambda2": "0.01", "lambda3": "0.25",
        "lambda4": "0.1", "inner_steps": "5", "outer_iters": "2", "warm_iters": "1",
        "tol": "1e-05", "seed": "4", "add_bias": str(bias),
        "n": "40", "d": str(5 + bias), "l": "6", "g": "2",
    }
    scores_path = tmp_path / "s.txt"
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path) == 0
    assert load_matrix(scores_path).tobytes() == _scores_of(model, masked, bias).tobytes()


def test_predict_scores_a_model_without_provenance_as_given(tmp_path, synth_files):
    # the library's fit sets no provenance: no add_bias entry, no bias row
    _, masked, _ = synth_files
    data = load_gml(masked)
    model, _ = fit(data, kmeans(data.features, 2, seed=0),
                   Hyperparams(k=2, outer_iters=2, warm_iters=1))
    assert model.provenance == {}
    model_path, scores_path = tmp_path / "m.model", tmp_path / "s.txt"
    save_model(model, model_path)
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path) == 0
    assert load_matrix(scores_path).tobytes() == _scores_of(model, masked, False).tobytes()


def test_predict_rejects_an_add_bias_entry_that_is_no_bool(tmp_path, synth_files, capsys):
    _, masked, _ = synth_files
    rng = np.random.default_rng(0)
    model = GlocalModel(U=rng.standard_normal((6, 2)), V=rng.standard_normal((2, 40)),
                        W=rng.standard_normal((5, 2)), factors=(np.ones((6, 2)) / np.sqrt(2),),
                        provenance={"add_bias": "yes"})
    model_path, scores_path = tmp_path / "m.model", tmp_path / "s.txt"
    save_model(model, model_path)
    capsys.readouterr()
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path) == 1
    assert capsys.readouterr().err == (
        "error: model provenance has add_bias=yes; expected True or False\n"
    )
    assert not scores_path.exists()


@pytest.mark.parametrize("grid", [[], ["--grid", "lambda3=0,0.5"]])
def test_the_trace_carries_the_model_header(tmp_path, synth_files, grid):
    # the trace's comment lines are the model file's: the run's stamp,
    # then every provenance entry
    _, masked, _ = synth_files
    model_path, trace_path = tmp_path / "m.model", tmp_path / "trace.csv"
    assert run("train", "--input", masked, "--model-out", model_path,
               "--trace", trace_path, "--add-bias", "--latent-k", 2, "--groups", 2,
               "--outer-iters", 2, "--warm-iters", 1, "--seed", 3, *grid) == 0
    model_lines = model_path.read_text(encoding="utf-8").splitlines()
    trace_lines = trace_path.read_text(encoding="utf-8").splitlines()
    header = [ln for ln in model_lines[1:] if ln.startswith("#")]
    stamp = (f"# glocal train input={masked}{' grid=lambda3=0,0.5' if grid else ''}"
             " add_bias=True k=2 groups=2 lambda=1.0 lambda2=0.01 lambda3=0.1"
             " lambda4=0.1 inner_steps=5 outer_iters=2 warm_iters=1 tol=1e-05 seed=3")
    entries = [f"# {key}={value}" for key, value in load_model(model_path).provenance.items()]
    assert header == [stamp, *entries] and len(entries) == 15
    assert [ln for ln in trace_lines if ln.startswith("#")] == header
    assert trace_lines[len(header)] == "iter,objective"


# every numeric flag of the data commands and of train, with small sizes,
# so no value can make a command allocate a large array
_NUMERIC_FLAGS = {
    "synth": ("--labels", "--instances", "--features", "--latent-k", "--noise",
              "--rho", "--seed"),
    "mask": ("--rho", "--seed"),
    "split": ("--fraction", "--seed"),
    "cluster": ("--groups", "--seed", "--max-iter"),
    "train": ("--latent-k", "--groups", "--lambda", "--lambda2", "--lambda3",
              "--lambda4", "--inner-steps", "--outer-iters", "--warm-iters",
              "--tol", "--seed"),
}
_INT_FLAGS = {"--labels", "--instances", "--features", "--latent-k", "--seed",
              "--groups", "--max-iter", "--inner-steps", "--outer-iters",
              "--warm-iters"}


def _base_argv(command, tmp_path, full):
    out = [tmp_path / f"out{i}" for i in range(3)]
    return {
        "synth": ["synth", "--labels", 3, "--instances", 6, "--features", 2,
                  "--latent-k", 1, "--noise", 0.1, "--rho", 50, "--seed", 1,
                  "--out-full", out[0], "--out-masked", out[1], "--out-hidden", out[2]],
        "mask": ["mask", "--input", full, "--rho", 50, "--seed", 1,
                 "--out", out[0], "--hidden-out", out[1]],
        "split": ["split", "--input", full, "--fraction", 0.5, "--seed", 1,
                  "--train-out", out[0], "--test-out", out[1]],
        "cluster": ["cluster", "--input", full, "--groups", 2, "--seed", 1,
                    "--max-iter", 10, "--out", out[0]],
        "train": ["train", "--input", full, "--latent-k", 2, "--groups", 2,
                  "--lambda", 1, "--lambda2", 0.01, "--lambda3", 0.1,
                  "--lambda4", 0.1, "--inner-steps", 2, "--outer-iters", 1,
                  "--warm-iters", 1, "--tol", 1e-5, "--seed", 1,
                  "--model-out", out[0]],
    }[command]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in _NUMERIC_FLAGS.items() for f in flags]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e300", "1e308"])
def test_numeric_flags_exit_cleanly_on_hostile_values(
    tmp_path, synth_files, capsys, command, flag, value
):
    argv = _base_argv(command, tmp_path, synth_files[0])
    at = argv.index(flag)
    argv[at : at + 2] = [f"{flag}={value}"]  # '=' keeps '-inf' a value
    try:
        rc = run(*argv)
    except SystemExit as exc:
        # argparse's usage error: the text is no value of an int flag
        assert flag in _INT_FLAGS and value in ("nan", "inf", "-inf", "1e300", "1e308")
        rc = exc.code
        assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
    else:
        assert rc in (1, 2)
        assert sum("error:" in line for line in err.splitlines()) == 1
        if rc == 1:
            assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [("synth", "--labels"), ("train", "--latent-k")])
def test_allocation_beyond_the_address_space_exits_with_one_line(
    tmp_path, synth_files, capsys, command, flag
):
    # 10**15 rows of float64 lie beyond a 47-bit address space, so the
    # allocation fails at once and touches no memory
    argv = _base_argv(command, tmp_path, synth_files[0])
    argv[argv.index(flag) + 1] = 10**15
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [
    *(("synth", f) for f in ("--labels", "--instances", "--features", "--latent-k")),
    ("cluster", "--groups"), ("train", "--latent-k"), ("train", "--groups"),
    ("train", "k="), ("train", "g="),
])
@pytest.mark.parametrize("value", [2**63 - 1, 2**63, 2**64, 10**20])
def test_sizes_beyond_int64_exit_with_one_line(tmp_path, synth_files, capsys, command, flag, value):
    # a size numpy cannot take as an int64, or one no array can have,
    # reaching any size flag or grid axis
    argv = _base_argv(command, tmp_path, synth_files[0])
    if flag.endswith("="):
        argv += ["--grid", f"{flag}{value}"]
    else:
        argv[argv.index(flag) + 1] = value
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["synth", "mask", "split", "cluster", "train"])
def test_negative_seed_is_rejected_by_name(tmp_path, synth_files, capsys, command):
    argv = _base_argv(command, tmp_path, synth_files[0])
    argv[argv.index("--seed") + 1] = -1
    assert run(*argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "name, stamped", [("tr\nain.gml", "tr\\nain.gml"), ("tr\udcffain.gml", "tr\\udcffain.gml")]
)
def test_stamps_of_hostile_paths_stay_one_utf8_line(tmp_path, synth_files, name, stamped):
    # a line break in a path must not split the scores header, and an
    # undecodable byte (a lone surrogate in Python) must not fail to
    # encode once the work is done, leaving an empty output behind
    _, masked, hidden = synth_files
    data = tmp_path / name
    data.write_bytes(masked.read_bytes())
    part, model = tmp_path / "part.txt", tmp_path / "m.model"
    scores, report = tmp_path / "scores.txt", tmp_path / "report.csv"
    assert run("cluster", "--input", data, "--groups", 2, "--out", part) == 0
    assert part.read_text(encoding="utf-8").splitlines()[0] == (
        f"# glocal cluster input={tmp_path / stamped} groups=2 seed=0 max_iter=100")
    assert run("train", "--input", data, "--partition", part, "--model-out", model,
               "--outer-iters", 2, "--warm-iters", 1) == 0
    assert model.read_text(encoding="utf-8").splitlines()[1].startswith(
        f"# glocal train input={tmp_path / stamped} partition={part} add_bias=False ")
    assert run("predict", "--model", model, "--input", data, "--scores-out", scores) == 0
    stamp = scores.read_text(encoding="utf-8").splitlines()[0]
    assert stamp == f"# glocal predict model={model} input={tmp_path / stamped}"
    assert run("eval", "--scores", scores, "--hidden", hidden, "--out", report) == 0


def test_missing_input_exits_nonzero(tmp_path, capsys):
    rc = run("cluster", "--input", tmp_path / "nope.gml", "--groups", 2,
             "--out", tmp_path / "p.txt")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not found" in err


def test_eval_checks_every_path_before_reading_scores(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("not a matrix\n", encoding="utf-8")
    missing = tmp_path / "missing.gml"
    assert run("eval", "--scores", scores, "--truth", missing,
               "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == f"error: truth file not found: {missing}\n"
    # an empty path is a missing file too, not a missing --truth
    assert run("eval", "--scores", scores, "--truth", "", "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == "error: truth file not found: \n"


@pytest.fixture
def pipeline_files(tmp_path, synth_files):
    """The synth files plus a partition, a model and a scores file."""
    full, masked, hidden = synth_files
    part, model, scores = tmp_path / "part.txt", tmp_path / "m.model", tmp_path / "s.txt"
    assert run("cluster", "--input", masked, "--groups", 2, "--out", part) == 0
    assert run("train", "--input", masked, "--partition", part, "--model-out", model,
               "--outer-iters", 1, "--warm-iters", 1) == 0
    assert run("predict", "--model", model, "--input", masked, "--scores-out", scores) == 0
    return dict(full=full, masked=masked, hidden=hidden, part=part, model=model,
                scores=scores)


def _path_argv(command, f, out):
    # every path flag of the subcommand given (eval takes one truth source)
    return {
        "synth": ["synth", "--labels", 3, "--instances", 6, "--features", 2,
                  "--latent-k", 1, "--out-full", out / "a", "--out-masked", out / "b",
                  "--out-hidden", out / "c"],
        "mask": ["mask", "--input", f["full"], "--rho", 50, "--out", out / "a",
                 "--hidden-out", out / "b"],
        "split": ["split", "--input", f["full"], "--fraction", 0.5,
                  "--train-out", out / "a", "--test-out", out / "b"],
        "cluster": ["cluster", "--input", f["masked"], "--groups", 2, "--out", out / "a"],
        "train": ["train", "--input", f["masked"], "--partition", f["part"],
                  "--model-out", out / "a", "--trace", out / "b",
                  "--outer-iters", 1, "--warm-iters", 1],
        "predict": ["predict", "--model", f["model"], "--input", f["masked"],
                    "--scores-out", out / "a", "--labels-out", out / "b"],
        "eval-truth": ["eval", "--scores", f["scores"], "--truth", f["full"],
                       "--out", out / "a"],
        "eval-hidden": ["eval", "--scores", f["scores"], "--hidden", f["hidden"],
                        "--out", out / "a"],
    }[command]


@pytest.mark.parametrize("command", ["synth", "mask", "split", "cluster", "train",
                                     "predict", "eval-truth", "eval-hidden"])
def test_every_path_flag_is_checked_before_the_command_runs(
    tmp_path, pipeline_files, capsys, monkeypatch, command
):
    # an output may not name a directory: the directory itself, a link to
    # it, or the empty path, which names the working directory
    out = tmp_path / "out"
    out.mkdir()
    os.symlink(out, tmp_path / "link")
    monkeypatch.chdir(out)
    argv = [str(a) for a in _path_argv(command, pipeline_files, out)]
    args = cli.build_parser().parse_args(argv)
    flags = {argv[i]: i + 1 for i in range(len(argv) - 1)
             if argv[i].startswith("--") and argv[i + 1].startswith(str(tmp_path))}
    declared = [n for n in (*args.inputs, *args.outputs) if getattr(args, n) is not None]
    assert sorted("--" + n.replace("_", "-") for n in declared) == sorted(flags)
    for name in declared:
        flag = "--" + name.replace("_", "-")
        if name in args.inputs:
            missing = str(tmp_path / "missing")
            cases = [(missing, f"error: {name} file not found: {missing}\n")]
        else:
            cases = [(str(tmp_path / "nodir" / "x"),
                      f"error: directory for {flag[2:]} does not exist: {tmp_path / 'nodir'}\n"),
                     *((str(d), f"error: {flag} names a directory: {out}\n")
                       for d in (out, tmp_path / "link", ""))]
        for value, want in cases:
            bad = list(argv)
            bad[flags[flag]] = value
            assert run(*bad) == 1
            assert capsys.readouterr() == ("", want)
            assert not any(out.iterdir()), "a command ran past a bad path"
    assert run(*argv) == 0


def _subcommands():
    """The parser of each subcommand, by name, as build_parser makes them."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


_PATH_CASES = ["synth", "mask", "split", "cluster", "train", "predict", "eval-truth",
               "eval-hidden"]

# the outputs of each subcommand that are GML or matrix files, which it
# writes with their array cache beside them
_CACHED_OUTPUTS = {"synth": {"out_full", "out_masked", "out_hidden"},
                   "mask": {"out", "hidden_out"}, "split": {"train_out", "test_out"},
                   "predict": {"scores_out", "labels_out"}}


def _cache_of(path):
    return Path(path).with_name(f".{Path(path).name}.glocal-cache")


@pytest.mark.parametrize("case", _PATH_CASES)
def test_every_output_opens_with_the_stamp_of_its_flags(tmp_path, pipeline_files, case):
    # the expected stamp is read off the subcommand's parser: 'glocal
    # <command>', then name=value for each flag in its declared order,
    # but the output paths and the flags left unset; lambda_ is 'lambda'
    command = case.split("-")[0]
    parser = _subcommands()[command]
    assert {c.split("-")[0] for c in _PATH_CASES} == set(_subcommands())
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(a) for a in _path_argv(case, pipeline_files, out)]
    args = parser.parse_args(argv[1:])
    flags = [a.dest for a in parser._actions if a.option_strings and a.dest != "help"]
    assert set(args.inputs) <= set(flags) and set(args.outputs) <= set(flags)
    stamp = " ".join([f"# glocal {command}", *(
        f"{name.rstrip('_')}={getattr(args, name)}" for name in flags
        if name not in args.outputs and getattr(args, name) is not None)])
    assert run(*argv) == 0
    outputs = [n for n in args.outputs if getattr(args, n) is not None]
    caches = [_cache_of(getattr(args, n)) for n in _CACHED_OUTPUTS.get(command, ())]
    assert len(outputs) >= 1 and sorted(out.iterdir()) == sorted(
        [*(Path(getattr(args, n)) for n in outputs), *caches])
    for name in outputs:
        lines = Path(getattr(args, name)).read_text(encoding="utf-8").splitlines()
        side = {"train_out": " side=train", "test_out": " side=test"}.get(name, "")
        assert next(ln for ln in lines if ln.startswith("#")) == stamp + side


def _spell(path, how, links):
    """Another path naming the file at path: a symbolic or hard link made
    in the directory links, or else path itself."""
    alias = links / f"{how}-{Path(path).name}"
    if how == "symlink":
        os.symlink(path, alias)
    elif how == "hardlink":
        os.link(path, alias)
    return str(alias) if how in ("symlink", "hardlink") else str(path)


def _files_under(root):
    """Every file under root, by path, with its bytes (a link's, its target's)."""
    return {p: p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


@pytest.mark.parametrize("case, first, second, how", [
    ("synth", "--out-full", "--out-hidden", "same"),
    ("synth", "--out-full", "--out-masked", "all"),
    ("synth", "--out-full", "--out-masked", "hardlink"),
    ("mask", "--out", "--hidden-out", "same"),
    ("mask", "--out", "--hidden-out", "symlink"),
    ("split", "--train-out", "--test-out", "same"),
    ("train", "--model-out", "--trace", "same"),
    ("train", "--model-out", "--trace", "dotted"),
    ("train", "--model-out", "--trace", "hardlink"),
    ("predict", "--scores-out", "--labels-out", "same"),
    ("predict", "--scores-out", "--labels-out", "symlink"),
])
def test_two_outputs_naming_one_file_are_refused_before_any_work(
    tmp_path, pipeline_files, capsys, case, first, second, how
):
    # the second write would replace the first: refused, naming both
    # flags, and the file that is there is left as it was
    out, links = tmp_path / "out", tmp_path / "links"
    out.mkdir()
    links.mkdir()
    target = out / "same.txt"
    target.write_bytes(b"kept\r\n")
    argv = [str(a) for a in _path_argv(case, pipeline_files, out)]
    path = (str(out / ".." / "out" / "same.txt") if how == "dotted"
            else _spell(target, how, links))
    argv[argv.index(first) + 1] = str(target)
    argv[argv.index(second) + 1] = path
    if how == "all":
        argv[argv.index("--out-hidden") + 1] = str(target)
    assert run(*argv) == 1
    assert capsys.readouterr() == (
        "", f"error: {first} and {second} name the same file: {target}\n")
    assert target.read_bytes() == b"kept\r\n"
    assert list(out.iterdir()) == [target]


@pytest.mark.parametrize("case", _PATH_CASES[1:])
def test_an_output_naming_an_input_is_refused_before_any_work(
    tmp_path, pipeline_files, capsys, case
):
    # every input/output pair, with the output spelled as the input, as a
    # symbolic or a hard link to it: refused before any work, naming both
    # flags and the input, and no file changes or appears
    out, links = tmp_path / "out", tmp_path / "links"
    out.mkdir()
    links.mkdir()
    argv = [str(a) for a in _path_argv(case, pipeline_files, out)]
    args = cli.build_parser().parse_args(argv)
    inputs = [n for n in args.inputs if getattr(args, n) is not None]
    outputs = [n for n in args.outputs if getattr(args, n) is not None]
    assert inputs and outputs
    for name in inputs:
        path = getattr(args, name)
        for how in ("same", "symlink", "hardlink"):
            alias = _spell(path, how, links)
            before = _files_under(tmp_path)
            for output in outputs:
                flag = "--" + output.replace("_", "-")
                bad = list(argv)
                bad[argv.index(flag) + 1] = alias
                assert run(*bad) == 1
                assert capsys.readouterr() == ("", f"error: --{name} and {flag} name the"
                                                   f" same file: {Path(path).resolve()}\n")
                assert _files_under(tmp_path) == before
    assert not any(out.iterdir())


@pytest.mark.parametrize("case", ["mask", "split", "cluster", "train", "predict",
                                  "eval-truth"])
def test_a_run_that_hits_the_gml_cache_writes_what_a_miss_writes(
    tmp_path, pipeline_files, capsys, monkeypatch, case
):
    # the first run decodes its inputs and writes a cache beside each:
    # its GML input's, and for eval --truth the scores' too; the second
    # reads the caches and decodes nothing
    for cache in tmp_path.glob(".*.glocal-cache"):
        cache.unlink()
    inputs = {"mask": ["full"], "split": ["full"], "eval-truth": ["full", "scores"]}
    caches = {_cache_of(pipeline_files[f]) for f in inputs.get(case, ["masked"])}
    capsys.readouterr()
    runs = []
    for out in (tmp_path / "miss", tmp_path / "hit"):
        out.mkdir()
        assert run(*_path_argv(case, pipeline_files, out)) == 0
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()))
        assert set(tmp_path.glob(".*.glocal-cache")) == caches
        refuse_decoding(monkeypatch)
    assert runs[0][0] and runs[0] == runs[1]


def test_a_gml_cache_that_cannot_be_written_is_skipped(tmp_path, synth_files):
    # a directory at the cache path fails the write as a read-only directory
    # would (which the tests cannot make, since they may run as root); the
    # run still succeeds, writes the same partition as a run that writes
    # its cache, and leaves no temporary file
    _, masked, _ = synth_files
    cache = tmp_path / f".{masked.name}.glocal-cache"
    cache.unlink()  # the one synth wrote
    cache.mkdir()
    before = set(tmp_path.iterdir())
    argv = ["cluster", "--input", masked, "--groups", 2, "--out"]
    assert run(*argv, tmp_path / "skipped.txt") == 0
    assert set(tmp_path.iterdir()) == before | {tmp_path / "skipped.txt"}
    assert cache.is_dir() and not any(cache.iterdir())
    cache.rmdir()
    assert run(*argv, tmp_path / "cached.txt") == 0
    assert cache.is_file()
    assert (tmp_path / "skipped.txt").read_bytes() == (tmp_path / "cached.txt").read_bytes()


def test_a_pipeline_after_synth_decodes_no_text(tmp_path, synth_files, monkeypatch):
    # synth writes each file's array cache as it writes the file, and
    # predict the scores', so every later stage reads arrays, never text;
    # eval on decoded files, with every cache deleted, reports the same
    _, masked, hidden = synth_files
    part, model, scores = tmp_path / "part.txt", tmp_path / "m.model", tmp_path / "s.txt"
    refuse_decoding(monkeypatch)
    assert run("cluster", "--input", masked, "--groups", 2, "--out", part) == 0
    assert run("train", "--input", masked, "--partition", part, "--model-out", model,
               "--outer-iters", 1, "--warm-iters", 1) == 0
    assert run("predict", "--model", model, "--input", masked, "--scores-out", scores) == 0
    assert run("eval", "--scores", scores, "--hidden", hidden,
               "--out", tmp_path / "cached.csv") == 0
    monkeypatch.undo()
    for cache in tmp_path.glob(".*.glocal-cache"):
        cache.unlink()
    assert run("eval", "--scores", scores, "--hidden", hidden,
               "--out", tmp_path / "decoded.csv") == 0
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "decoded.csv").read_bytes()


@pytest.mark.parametrize("case", ["cluster", "eval-truth"])
def test_a_malformed_gml_input_exits_with_its_error_and_writes_no_cache(
    tmp_path, pipeline_files, capsys, case
):
    bad = tmp_path / "bad" / "bad.gml"
    bad.parent.mkdir()
    bad.write_text("2 3 4\n+:1|-:|1:0.5\n+:2|-:1\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(*_path_argv(case, {**pipeline_files, "full": bad, "masked": bad}, out)) == 1
    assert capsys.readouterr() == ("", "error: line 3: expected 3 '|'-separated fields\n")
    assert list(bad.parent.iterdir()) == [bad]


# a dataset mask reads, and the files of the property below: two holding
# it, two not there yet
_TINY_GML = "3 2 2\n+:1|-:2|1:1.0\n+:2|-:|2:0.5\n+:|-:1,2|1:2.0 2:1.0\n"
_TARGETS = ("a.gml", "b.gml", "c", "d")


def _spelled_target(existing):
    hows = ["plain", "dotted", "updir", "symlink"] + ["hardlink"] * existing
    targets = _TARGETS[:2] if existing else _TARGETS
    return st.tuples(st.sampled_from(targets), st.sampled_from(hows))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_spelled_target(True), _spelled_target(False), _spelled_target(False))
def test_a_run_is_refused_exactly_when_an_output_shares_a_file(source, out, hidden):
    # mask's three paths, each naming one of the four files (the input one
    # that holds the dataset) in one of five spellings (a hard link only to
    # a file that is there); a refusal leaves every file, links included,
    # as it was
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sub").mkdir()
        for name in _TARGETS[:2]:
            (root / name).write_text(_TINY_GML, encoding="utf-8")
            os.link(root / name, root / f"hard-{name}")
        for name in _TARGETS:
            os.symlink(root / name, root / f"sym-{name}")
        spell = {"plain": "{}", "dotted": "./{}", "updir": "sub/../{}",
                 "symlink": "sym-{}", "hardlink": "hard-{}"}
        # joined as strings: a Path would drop the '.' of './x'
        paths = [f"{root}/" + spell[how].format(name) for name, how in (source, out, hidden)]
        before = _files_under(root)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run("mask", "--input", paths[0], "--rho", 50, "--out", paths[1],
                     "--hidden-out", paths[2])
        shared = out[0] == source[0] or hidden[0] in (source[0], out[0])
        assert rc == (1 if shared else 0), err.getvalue()
        if shared:
            assert re.fullmatch(r"error: --[a-z-]+ and --[a-z-]+ name the same file: \S+\n",
                                err.getvalue())
            assert _files_under(root) == before


def test_readme_defaults_table_matches_the_train_parser():
    # every numeric train flag, with its default compared as a number
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("### Defaults", 1)[1].split("\n\n", 2)[1]
    rows = [re.fullmatch(r"\| `(--[a-z0-9-]+)` \| ([^|]+) \|.*", ln)
            for ln in table.splitlines()[2:]]
    assert all(rows), table
    documented = {m[1]: float(m[2]) for m in rows}
    parser = _subcommands()["train"]
    defaults = {a.option_strings[0]: float(a.default) for a in parser._actions
                if isinstance(a.default, (int, float)) and not isinstance(a.default, bool)}
    assert documented == defaults


def test_partition_not_covering_dataset_exits_nonzero(
    tmp_path, synth_files, capsys
):
    _, masked, _ = synth_files
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n", encoding="utf-8")  # covers 2 of 40 instances
    rc = run("train", "--input", masked, "--partition", bad,
             "--model-out", tmp_path / "m.model")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [("--tol", "nan", "tol"), ("--lambda", "inf", "lambda_"),
     ("--lambda2", "nan", "lambda2")],
)
def test_train_rejects_non_finite_hyperparameters(
    tmp_path, synth_files, capsys, flag, value, field
):
    _, masked, _ = synth_files
    model_out = tmp_path / "m.model"
    rc = run("train", "--input", masked, "--model-out", model_out, flag, value)
    assert rc == 1
    # the message names the flag: the field lambda_ is --lambda
    assert capsys.readouterr().err == f"error: {field.rstrip('_')} must be finite\n"
    assert not model_out.exists()


@pytest.mark.parametrize("value, message", [("nan", "lambda must be finite"),
                                            ("-1", "lambda must be >= 0")])
def test_train_names_the_lambda_flag(tmp_path, synth_files, capsys, value, message):
    _, masked, _ = synth_files
    model_out = tmp_path / "m.model"
    rc = run("train", "--input", masked, "--model-out", model_out, "--lambda", value)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_out.exists()


@pytest.mark.parametrize("flag, value", [("--lambda2", "1e200"), ("--lambda", "1e308")])
def test_train_names_a_warm_start_that_overflows(tmp_path, synth_files, capsys, flag, value):
    # finite but so large that a warm-start block overflows: the error
    # names the warm start, not the model block that holds the inf
    _, masked, _ = synth_files
    model_out = tmp_path / "m.model"
    rc = run("train", "--input", masked, "--model-out", model_out, flag, value)
    assert rc == 1
    assert capsys.readouterr().err == "error: warm start is not finite after sweep 1\n"
    assert not model_out.exists()


def run_and_stderr(*argv):
    # main's exit code and what the run shows on stderr: its own lines,
    # then each warning as Python would print it
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = run(*argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return rc, err.getvalue() + shown


def test_train_with_far_more_inner_steps_than_k_exits_cleanly(tmp_path):
    # past exactness a V column's conjugate-gradient direction shrinks
    # until its squared norm underflows to 0; the column stops there
    # rather than divide by it.  The default 20 warm sweeps reach it
    full, masked, hidden = (tmp_path / f for f in ("full.gml", "masked.gml", "hidden.txt"))
    assert run("synth", "--labels", 20, "--instances", 200, "--features", 10,
               "--latent-k", 3, "--noise", 0.3, "--rho", 30, "--seed", 0,
               "--out-full", full, "--out-masked", masked, "--out-hidden", hidden) == 0
    rc, err = run_and_stderr("train", "--input", masked, "--latent-k", 3,
                             "--inner-steps", 100, "--outer-iters", 1, "--tol", 0,
                             "--model-out", tmp_path / "m.model")
    assert (rc, err) == (0, "")


# three instances with one feature each: a factor step sends a row of Z
# to exactly 0 at k = 1, 2 and 4
_ZERO_ROW_GML = ("3 1 3\n+:2|-:|1:2.4950131871728485\n+:2|-:|1:0.1287480784987166\n"
                 "+:|-:|1:-1.2780490190910927\n")


@pytest.mark.parametrize("k", [1, 2, 4])
def test_train_keeps_a_factor_row_its_step_zeroes(tmp_path, k):
    gml = tmp_path / "z.gml"
    gml.write_text(_ZERO_ROW_GML, encoding="utf-8")
    model_out = tmp_path / "m.model"
    rc, err = run_and_stderr("train", "--input", gml, "--latent-k", k, "--model-out", model_out)
    assert (rc, err) == (0, "")
    for Z in load_model(model_out).factors:
        assert np.abs(np.einsum("ij,ij->i", Z, Z) - 1.0).max() <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(hyperparams_domain())
def test_train_exits_cleanly_over_the_hyperparameter_domain(problem):
    # the library property's draws through main, one flag per Hyperparams
    # field: exit 0 with nothing on stderr, or exit 1 with one error line
    data, g, hp = problem
    flags = [f"--latent-k={hp.k}", f"--groups={g}"]
    for f in dataclasses.fields(hp):
        if f.name != "k":
            flags.append(f"--{f.name.rstrip('_').replace('_', '-')}={getattr(hp, f.name)!r}")
    with tempfile.TemporaryDirectory() as tmp:
        gml = Path(tmp) / "train.gml"
        save_gml({gml: data})
        rc, err = run_and_stderr("train", "--input", gml, *flags,
                                 "--model-out", Path(tmp) / "m.model")
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1 and re.fullmatch(r"error: [^\n]*\n", err), err
