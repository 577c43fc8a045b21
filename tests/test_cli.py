import numpy as np
import pytest

from glocal import cli, solver
from glocal.cli import (
    load_hidden,
    load_matrix,
    main,
    make_synthetic,
    parse_grid,
    read_hidden,
    read_matrix,
    save_hidden,
    save_matrix,
)
from glocal.clustering import kmeans
from glocal.data import parse_gml
from glocal.metrics import ranking_loss
from glocal.model import load_model


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


def test_hidden_sidecar_round_trip(tmp_path):
    hidden = [(0, 3, 1), (2, 0, -1)]
    path = tmp_path / "hidden.txt"
    save_hidden(hidden, path, comments=["source: toy"])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# source: toy"
    assert lines[1] == "1 4 1"
    assert np.array_equal(load_hidden(path), hidden)
    with pytest.raises(ValueError, match="line 1"):
        read_hidden("1 2\n")
    with pytest.raises(ValueError, match="three integers"):
        read_hidden("1 2 x\n")
    with pytest.raises(ValueError, match="bad hidden entry"):
        read_hidden("1 2 0\n")
    with pytest.raises(ValueError, match="^line 2: duplicate hidden entry"):
        read_hidden("1 1 1\n1 1 -1\n")


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    path = tmp_path / "m.txt"
    save_matrix(A, path, comments=["x"])
    assert np.array_equal(load_matrix(path), A)
    with pytest.raises(ValueError, match="header"):
        read_matrix("# only a comment\n")
    with pytest.raises(ValueError, match="expected 6 values"):
        read_matrix("2 3\n1 2 3 4 5\n")
    with pytest.raises(ValueError, match="bad matrix header"):
        read_matrix("x 2\n1 2\n")
    with pytest.raises(ValueError, match="bad matrix header"):
        read_matrix("-1 -1\n5\n")
    # an empty matrix with a side numpy cannot hold
    for header in ("99999999999999999999 0", "4611686018427387904 0",
                   "0 99999999999999999999"):
        with pytest.raises(ValueError, match=f"^bad matrix header '{header}'"):
            read_matrix(header + "\n")


def test_parse_grid():
    axes = parse_grid("lambda3=0.1,1;k=3,5;g=2")
    assert axes == {"lambda3": [0.1, 1.0], "k": [3, 5], "g": [2]}
    with pytest.raises(ValueError, match="bad grid axis"):
        parse_grid("rho=1,2")
    with pytest.raises(ValueError, match="duplicate"):
        parse_grid("k=1;k=2")
    with pytest.raises(ValueError, match="bad grid values"):
        parse_grid("k=one")
    with pytest.raises(ValueError, match="grid axis 'g' needs values >= 1, got 0"):
        parse_grid("g=0,2")


def test_synth_outputs_consistent(synth_files):
    full, masked, hidden = synth_files
    full_ds = parse_gml(full.read_text())
    masked_ds = parse_gml(masked.read_text())
    entries = read_hidden(hidden.read_text())
    assert full_ds.n == masked_ds.n == 40
    total = full_ds.l * full_ds.n
    kept = int(masked_ds.labels.indicator.sum())
    assert kept == round(0.60 * total)
    assert len(entries) == total - kept
    for j, i, v in entries:
        assert masked_ds.labels.values[j, i] == 0
        assert full_ds.labels.values[j, i] == v
    assert full.read_text().startswith("# glocal synth seed=7")


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
    masked = parse_gml(out.read_text())
    assert int(masked.labels.indicator.sum()) == round(0.25 * 6 * 40)

    tr = tmp_path / "train.gml"
    te = tmp_path / "test.gml"
    assert run("split", "--input", full, "--fraction", 0.75, "--seed", 1,
               "--train-out", tr, "--test-out", te) == 0
    train, test = parse_gml(tr.read_text()), parse_gml(te.read_text())
    assert train.n == 30 and test.n == 10
    assert train.d == test.d == 5


def test_cluster_train_predict_eval_pipeline(tmp_path, synth_files, capsys):
    full, masked, hidden = synth_files
    part = tmp_path / "groups.txt"
    assert run("cluster", "--input", masked, "--groups", 3, "--seed", 0,
               "--out", part) == 0
    lines = [
        ln for ln in part.read_text().splitlines() if not ln.startswith("#")
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
        ln for ln in trace_path.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert rows[0] == "iter,objective"
    objs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))

    scores_path = tmp_path / "scores.txt"
    labels_path = tmp_path / "labels.txt"
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path, "--labels-out", labels_path) == 0
    S = read_matrix(scores_path.read_text())
    L = read_matrix(labels_path.read_text())
    assert S.shape == L.shape == (6, 40)
    assert np.array_equal(L, np.where(S > 0, 1.0, -1.0))

    report_hidden = tmp_path / "report-hidden.csv"
    assert run("eval", "--scores", scores_path, "--hidden", hidden,
               "--out", report_hidden) == 0
    report_truth = tmp_path / "report-truth.csv"
    assert run("eval", "--scores", scores_path, "--truth", full,
               "--out", report_truth) == 0
    header = report_truth.read_text().splitlines()
    assert header[1] == "rkl,auc,cvg,ap,skipped_instances,skipped_labels"

    # the truth-file route must agree with computing the metric directly
    truth = parse_gml(full.read_text()).labels.values
    want = ranking_loss(S, truth)
    got = float(header[2].split(",")[0])
    assert got == pytest.approx(want, abs=1e-12)
    out = capsys.readouterr().out
    assert "eval: rkl=" in out


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
    text = model_path.read_text()
    assert "# grid selection:" in text


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


def test_train_grid_rejects_a_group_count_below_one(tmp_path, synth_files, capsys):
    _, masked, _ = synth_files
    rc = run("train", "--input", masked, "--model-out", tmp_path / "m.model",
             "--grid", "g=0,2")
    assert rc == 1
    assert capsys.readouterr().err == "error: grid axis 'g' needs values >= 1, got 0\n"


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


def test_add_bias_appends_constant_feature(tmp_path, synth_files):
    _, masked, _ = synth_files
    model_path = tmp_path / "bias.model"
    assert run("train", "--input", masked, "--model-out", model_path,
               "--add-bias", "--latent-k", 2, "--outer-iters", 2,
               "--warm-iters", 2) == 0
    assert load_model(model_path).d == 6  # 5 features plus the bias row
    # prediction must then also be given the bias flag
    scores_path = tmp_path / "s.txt"
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path) == 1
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path, "--add-bias") == 0


@pytest.mark.parametrize("bias", [True, False])
def test_train_records_provenance_and_predict_checks_add_bias(
    tmp_path, synth_files, capsys, bias
):
    _, masked, _ = synth_files
    model_path = tmp_path / "m.model"
    bias_flag = ["--add-bias"] if bias else []
    assert run("train", "--input", masked, "--model-out", model_path, *bias_flag,
               "--latent-k", 2, "--groups", 2, "--lambda3", 0.25, "--outer-iters", 2,
               "--warm-iters", 1, "--seed", 4) == 0
    assert load_model(model_path).provenance == {
        "k": "2", "lambda_": "1.0", "lambda2": "0.01", "lambda3": "0.25",
        "lambda4": "0.1", "inner_steps": "5", "outer_iters": "2", "warm_iters": "1",
        "tol": "1e-05", "seed": "4", "add_bias": str(bias),
        "n": "40", "d": str(5 + bias), "l": "6", "g": "2",
    }
    capsys.readouterr()
    scores_path = tmp_path / "s.txt"
    wrong_flag = [] if bias else ["--add-bias"]
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path, *wrong_flag) == 1
    assert capsys.readouterr().err == (
        f"error: model was trained with add_bias={bias} but predict got"
        f" add_bias={not bias}; pass --add-bias exactly when train did\n"
    )
    assert not scores_path.exists()
    assert run("predict", "--model", model_path, "--input", masked,
               "--scores-out", scores_path, *bias_flag) == 0


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
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e300"])
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
        assert flag in _INT_FLAGS and value in ("nan", "inf", "-inf", "1e300")
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
    assert part.read_text(encoding="utf-8").splitlines()[0].endswith(f"input={tmp_path / stamped}")
    assert run("train", "--input", data, "--partition", part, "--model-out", model,
               "--outer-iters", 2, "--warm-iters", 1) == 0
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


def test_partition_not_covering_dataset_exits_nonzero(
    tmp_path, synth_files, capsys
):
    _, masked, _ = synth_files
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n")  # covers 2 of 40 instances
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
    assert capsys.readouterr().err == f"error: {field} must be finite\n"
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
