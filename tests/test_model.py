import base64
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from glocal.data import FeatureMatrix
from glocal.model import (
    MODEL_MAGIC,
    GlocalModel,
    Hyperparams,
    ModelFormatError,
    load_model,
    predict,
    save_model,
    score,
)


def load_text(text):
    """load_model on a model file's contents held in a string."""
    return load_model(io.StringIO(text))


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
    assert np.array_equal(load_model(io.StringIO(text)).U, model.U)


def test_load_rejects_foreign_and_future_files(tmp_path):
    missing = tmp_path / "missing.model"
    with pytest.raises(FileNotFoundError, match="missing.model"):
        load_model(str(missing))
    with pytest.raises(ModelFormatError, match="not a GLOCAL model"):
        load_text("n d l\nwhatever")
    with pytest.raises(ModelFormatError, match="unsupported model version"):
        load_text("GLOCAL-MODEL v3\n1 1 1 1\n")
    # the decimal v1 format is gone: such files must be retrained
    v1 = "GLOCAL-MODEL v1\n1 1 1 1\nU 1 1\n1\nW 1 1\n1\nV 1 1\n1\nZ_1 1 1\n1\n"
    with pytest.raises(ModelFormatError,
                       match="^unsupported model version 'GLOCAL-MODEL v1'$"):
        load_text(v1)
    with pytest.raises(ModelFormatError, match="empty"):
        load_text("")


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
        load_text(model_text(lambda ls: [ls[0], ls[1], "Q 4 2"] + ls[3:]))
    with pytest.raises(ModelFormatError, match="expected 4 rows"):
        load_text(
            model_text(lambda ls: [ls[0], ls[1], "U 3 2"] + ls[3:])
        )
    # ls[3] is U's first row: the base64 of two little-endian float64
    def row(*values):
        return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()

    for bad in ("!" + row(0.5, 1.0)[1:], row(0.5, 1.0)[:-1], row(0.5, 1.0) + " x"):
        with pytest.raises(ModelFormatError, match="^block U row 1: not base64$"):
            load_text(model_text(lambda ls: ls[:3] + [bad] + ls[4:]))
    with pytest.raises(ModelFormatError, match="^block U row 1: expected 16 bytes, found 8$"):
        load_text(model_text(lambda ls: ls[:3] + [row(0.5)] + ls[4:]))
    # without its last row, U reads W's header in that row's place
    with pytest.raises(ModelFormatError, match="^block U row 4: not base64$"):
        load_text(model_text(lambda ls: ls[:6] + ls[7:]))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelFormatError, match="^block U: non-finite value$"):
            load_text(model_text(lambda ls: ls[:3] + [row(0.5, value)] + ls[4:]))
    with pytest.raises(ModelFormatError, match="trailing content"):
        load_text(model_text(lambda ls: ls + ["0.0"]))
    with pytest.raises(ModelFormatError, match="unexpected end of file"):
        load_text(model_text(lambda ls: ls[:-1]))
    with pytest.raises(ModelFormatError, match="bad dimensions"):
        load_text(model_text(lambda ls: [ls[0], "0 3 2 2"] + ls[2:]))


def test_documented_model_example_parses():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # the fenced block under the File formats entry for models
    example = text.split("**Model**", 1)[1].split("```\n", 2)[1]
    model = load_text(example)
    assert (model.l, model.d, model.k, model.g, model.n) == (2, 1, 1, 1, 2)
    assert model.U.ravel().tolist() == [0.5, -1.25]
    assert model.W.ravel().tolist() == [0.75]
    assert model.V.ravel().tolist() == [1.0, -2.0]
    assert model.factors[0].ravel().tolist() == [1.0, -1.0]
    assert model.provenance == {"k": "1", "seed": "0", "add_bias": "False"}
    # and the example is exactly what save_model writes
    buf = io.StringIO()
    save_model(model, buf, comments=["glocal train"])
    assert buf.getvalue() == example


def test_provenance_round_trips_and_must_read_back_as_written():
    model = random_model(np.random.default_rng(8))
    model = dataclasses.replace(model, provenance={"seed": 3, "lambda_": 0.1, "ok": "a=b"})
    assert model.provenance == {"seed": "3", "lambda_": "0.1", "ok": "a=b"}
    buf = io.StringIO()
    save_model(model, buf, comments=["free text=not provenance"])
    assert load_text(buf.getvalue()).provenance == model.provenance
    # only '# key=value' lines before the dimension line count
    lines = buf.getvalue().splitlines()
    late = "\n".join(lines[:6] + ["# late=1"] + lines[6:])
    assert load_text(late).provenance == model.provenance
    for bad in ({"two words": 1}, {"k": "a b"}, {"k": ""}, {"a=b": 1}, {1: 2}):
        with pytest.raises(ValueError, match="bad provenance entry"):
            dataclasses.replace(model, provenance=bad)


def test_load_allows_comments_between_blocks():
    def inject(lines):
        return lines[:3] + ["# a mid-file note"] + lines[3:]

    back = load_text(model_text(inject))
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
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        Hyperparams(k=1, seed=-1)
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
