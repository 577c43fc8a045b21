import dataclasses
import io

import numpy as np
import pytest

from glocal.data import FeatureMatrix
from glocal.model import (
    MODEL_MAGIC,
    GlocalModel,
    Hyperparams,
    ModelFormatError,
    load_model,
    parse_model,
    predict,
    save_model,
    score,
)


def random_model(rng, l=4, d=3, k=2, g=2):
    return GlocalModel(
        U=rng.standard_normal((l, k)),
        V=rng.standard_normal((k, 5)),
        W=rng.standard_normal((d, k)),
        factors=tuple(rng.standard_normal((l, k)) for _ in range(g)),
    )


def test_score_matches_loop_oracle():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    X = FeatureMatrix(rng.standard_normal((3, 6)))
    got = score(model, X)
    want = np.zeros((4, 6))
    for a in range(4):
        for i in range(6):
            for b in range(2):
                for j in range(3):
                    want[a, i] += model.U[a, b] * model.W[j, b] * X.values[j, i]
    assert got.shape == (4, 6)
    assert np.allclose(got, want, atol=1e-12)


def test_predict_signs_and_zero_maps_to_negative():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    zero_w = GlocalModel(
        U=model.U, V=model.V, W=np.zeros_like(model.W), factors=model.factors
    )
    X = FeatureMatrix(rng.standard_normal((3, 5)))
    labels = predict(zero_w, X)
    assert labels.dtype == np.int8
    assert np.array_equal(labels, np.full((4, 5), -1))
    labels = predict(model, X)
    assert set(np.unique(labels)) <= {-1, 1}
    assert np.array_equal(labels == 1, score(model, X) > 0)


def test_score_rejects_dimension_mismatch():
    model = random_model(np.random.default_rng(2))
    with pytest.raises(ValueError, match="does not match model d"):
        score(model, FeatureMatrix(np.zeros((7, 2))))


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        model = random_model(
            rng,
            l=int(rng.integers(2, 6)),
            d=int(rng.integers(1, 5)),
            k=int(rng.integers(1, 4)),
            g=int(rng.integers(1, 4)),
        )
        path = tmp_path / f"m{trial}.model"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.U, model.U)
        assert np.array_equal(back.V, model.V)
        assert np.array_equal(back.W, model.W)
        assert back.g == model.g
        for Za, Zb in zip(back.factors, model.factors):
            assert np.array_equal(Za, Zb)


def test_save_load_via_file_objects_and_text():
    model = random_model(np.random.default_rng(4))
    buf = io.StringIO()
    save_model(model, buf, comments=["seed 4", "trained on toy data"])
    text = buf.getvalue()
    assert text.splitlines()[0] == MODEL_MAGIC
    assert text.splitlines()[1] == "# seed 4"
    for back in (load_model(io.StringIO(text)), parse_model(text)):
        assert np.array_equal(back.U, model.U)


def test_load_rejects_foreign_and_future_files(tmp_path):
    missing = tmp_path / "missing.model"
    with pytest.raises(FileNotFoundError, match="missing.model"):
        load_model(str(missing))
    with pytest.raises(ModelFormatError, match="not a GLOCAL model"):
        parse_model("n d l\nwhatever")
    with pytest.raises(ModelFormatError, match="unsupported model version"):
        parse_model("GLOCAL-MODEL v2\n1 1 1 1\n")
    with pytest.raises(ModelFormatError, match="empty"):
        parse_model("")


def model_text(mutate=None):
    model = random_model(np.random.default_rng(5))
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    if mutate:
        lines = mutate(lines)
    return "\n".join(lines) + "\n"


def test_load_rejects_malformed_content():
    with pytest.raises(ModelFormatError, match="expected block 'U'"):
        parse_model(model_text(lambda ls: [ls[0], ls[1], "Q 4 2"] + ls[3:]))
    with pytest.raises(ModelFormatError, match="expected 4 rows"):
        parse_model(
            model_text(lambda ls: [ls[0], ls[1], "U 3 2"] + ls[3:])
        )
    with pytest.raises(ModelFormatError, match="non-numeric"):
        parse_model(model_text(lambda ls: ls[:3] + ["0.5 oops"] + ls[4:]))
    with pytest.raises(ModelFormatError, match="non-finite"):
        parse_model(model_text(lambda ls: ls[:3] + ["0.5 nan"] + ls[4:]))
    with pytest.raises(ModelFormatError, match="trailing content"):
        parse_model(model_text(lambda ls: ls + ["0.0"]))
    with pytest.raises(ModelFormatError, match="unexpected end of file"):
        parse_model(model_text(lambda ls: ls[:-1]))
    with pytest.raises(ModelFormatError, match="bad dimensions"):
        parse_model(model_text(lambda ls: [ls[0], "0 3 2 2"] + ls[2:]))


def test_load_allows_comments_between_blocks():
    def inject(lines):
        return lines[:3] + ["# a mid-file note"] + lines[3:]

    back = parse_model(model_text(inject))
    assert back.l == 4 and back.k == 2


def test_hyperparams_defaults_and_validation():
    hp = Hyperparams(k=3)
    assert hp.lambda_ == 1.0
    assert hp.lambda2 == 0.01
    assert hp.lambda3 == 0.1
    assert hp.lambda4 == 0.1
    assert (hp.inner_steps, hp.outer_iters, hp.warm_iters) == (5, 50, 20)
    assert hp.tol == 1e-5 and hp.seed == 0
    with pytest.raises(ValueError, match="k must be"):
        Hyperparams(k=0)
    with pytest.raises(ValueError, match="lambda3"):
        Hyperparams(k=1, lambda3=-0.1)
    with pytest.raises(ValueError, match="inner_steps"):
        Hyperparams(k=1, inner_steps=0)
    with pytest.raises(ValueError, match="warm_iters"):
        Hyperparams(k=1, warm_iters=-1)
    with pytest.raises(ValueError, match="tol"):
        Hyperparams(k=1, tol=-1e-9)
    for name in ("lambda_", "lambda2", "lambda3", "lambda4", "tol"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                Hyperparams(k=1, **{name: bad})


def test_model_validation():
    rng = np.random.default_rng(6)
    U = rng.standard_normal((4, 2))
    V = rng.standard_normal((2, 5))
    W = rng.standard_normal((3, 2))
    Z = rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="V has"):
        GlocalModel(U=U, V=rng.standard_normal((3, 5)), W=W, factors=(Z,))
    with pytest.raises(ValueError, match="W has"):
        GlocalModel(U=U, V=V, W=rng.standard_normal((3, 3)), factors=(Z,))
    with pytest.raises(ValueError, match="at least one"):
        GlocalModel(U=U, V=V, W=W, factors=())
    with pytest.raises(ValueError, match="factor 2 has shape"):
        GlocalModel(U=U, V=V, W=W, factors=(Z, rng.standard_normal((4, 3))))
    with pytest.raises(ValueError, match="non-finite"):
        GlocalModel(U=U * np.inf, V=V, W=W, factors=(Z,))


def test_model_and_hyperparams_are_frozen():
    model = random_model(np.random.default_rng(7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.U = model.U * 2
    hp = Hyperparams(k=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.k = 3
