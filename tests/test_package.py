import ast
import dataclasses
import io
import math
import numbers
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glocal
from glocal import (
    Dataset,
    FeatureMatrix,
    GlocalModel,
    Hyperparams,
    LabelMatrix,
    Partition,
    apply_mask,
    combine_correlations,
    evaluate,
    kmeans,
    laplacian_of,
    split,
    take_instances,
)
from glocal.data import load_matrix, make_synthetic, save_matrix


def test_every_exported_name_resolves_once():
    names = glocal.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"exported more than once: {repeated}"
    missing = [name for name in names if not hasattr(glocal, name)]
    assert not missing, f"exported but not defined: {missing}"


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # the ini makes a DeprecationWarning an error, and Hypothesis reports a
    # failure through libcst, whose import of mypy_extensions.TypedDict
    # warns; unfiltered, that ends the run with INTERNALERROR (exit 3)
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_small(x):
            assert x < 10
    """), encoding="utf-8")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ini),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


def test_no_module_imports_a_private_name_from_another():
    # a leading-underscore name is its module's own; another module that
    # needs it needs a public name
    crossings = []
    for path in sorted(Path(glocal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                crossings += [f"{path.name}: from .{node.module} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not crossings, crossings


# values a caller may hand a constructor in place of a number
HOSTILE = (0.5, 1.9, -0.5, 257, -257, float("nan"), float("inf"), float("-inf"),
           1 + 1j, 1 + 0j, True, False, "30", "0.1", None,
           Decimal("0.5"), Fraction(1, 2), 10**400, -10**400, 1e308, -1e308)
COUNTS = {"k", "inner_steps", "outer_iters", "warm_iters", "seed"}


def placed(base, value, data):
    """The rows of base with value at one drawn entry, or at every entry."""
    rows = [list(row) for row in base]
    if data.draw(st.booleans()):
        return [[value] * len(row) for row in rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = value
    return rows


def holds_array(held, given, kinds):
    # numbers of an accepted dtype kind, held at their own values
    given = np.asarray(given)
    return given.dtype.kind in kinds and held.tolist() == given.tolist()


def holds_scalar(held, given, count):
    # a count is an integer that is no bool, a real is stored as a float
    typed = (isinstance(held, numbers.Integral) and not isinstance(held, bool)
             if count else type(held) is float)
    return typed and held == given


def takes(value, count):
    # a count or a seed is an integer that is no bool, a rate a finite
    # int or float
    if count:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return type(value) in (int, float) and abs(value) < math.inf


def finite_reals(rows):
    given = np.asarray(rows)
    return given.dtype.kind in "iuf" and bool(np.isfinite(given).all())


# four instances in two clear groups, and labels every metric is defined on
FEATURES = FeatureMatrix([[0.0, 0.0, 5.0, 5.0], [0.0, 1.0, 0.0, 1.0]])
DATASET = Dataset(FEATURES, LabelMatrix([[1, -1, 1, -1], [-1, 1, 0, 1]]))
SCORES = [[0.9, 0.1, 0.5], [0.2, 0.8, 0.4]]
TRUTH = [[1, -1, 1], [-1, 1, -1]]


def hostile_case(kind, value, data):
    """(a call with value in one place, what returning means: holding
    the values given, or having taken only a value valid there)."""
    if kind == "labels":
        rows = placed([[1, -1, 0], [0, 1, -1]], value, data)
        return lambda: LabelMatrix(rows), lambda L: holds_array(L.values, rows, "iuf")
    if kind == "features":
        rows = placed([[0.5, -2.0], [3.0, 1.0]], value, data)
        return lambda: FeatureMatrix(rows), lambda F: holds_array(F.values, rows, "iuf")
    if kind == "assignment":
        (assign,) = placed([[1, 2, 1]], value, data)
        return lambda: Partition(2, assign), lambda P: holds_array(P.assignment, assign, "iu")
    if kind == "g":
        return lambda: Partition(value, [1, 2, 1]), lambda P: holds_scalar(P.g, value, True)
    if kind == "model":
        blocks = {"U": [[1.0], [0.5]], "V": [[1.0, 2.0]], "W": [[0.5]], "Z": [[1.0], [-1.0]]}
        name = data.draw(st.sampled_from(sorted(blocks)))
        blocks[name] = placed(blocks[name], value, data)
        Z = blocks.pop("Z")
        return (lambda: GlocalModel(factors=(Z,), **blocks),
                lambda M: holds_array(M.factors[0], Z, "iuf")
                and all(holds_array(getattr(M, b), rows, "iuf") for b, rows in blocks.items()))
    if kind == "hyperparams":
        name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(Hyperparams)]))
        return (lambda: Hyperparams(**{"k": 1, name: value}),
                lambda hp: holds_scalar(getattr(hp, name), value, name in COUNTS))
    if kind == "mask":
        name = data.draw(st.sampled_from(["rho", "seed"]))
        args = {"rho": 30.0, "seed": 0, name: value}
        return (lambda: apply_mask(DATASET, **args),
                lambda masked: takes(value, name == "seed")
                and masked.labels.values.shape == DATASET.labels.values.shape)
    if kind == "kmeans":
        name = data.draw(st.sampled_from(["g", "seed", "max_iter"]))
        args = {"g": 2, "seed": 0, "max_iter": 100, name: value}
        return (lambda: kmeans(FEATURES, **args),
                lambda part: takes(value, True) and part.g == args["g"])
    if kind == "split":
        name = data.draw(st.sampled_from(["train_fraction", "seed"]))
        args = {"train_fraction": 0.5, "seed": 0, name: value}
        return (lambda: split(DATASET, **args),
                lambda sides: takes(value, name == "seed")
                and sides[0].n + sides[1].n == DATASET.n)
    if kind == "synthetic":
        name = data.draw(st.sampled_from(["l", "n", "d", "k_true", "noise", "seed"]))
        args = {"l": 3, "n": 4, "d": 2, "k_true": 1, "noise": 0.1, "seed": 0, name: value}
        return (lambda: make_synthetic(**args),
                lambda made: takes(value, name != "noise")
                and (made.l, made.n, made.d) == (args["l"], args["n"], args["d"]))
    if kind == "scores":
        rows = placed(SCORES, value, data)
        return lambda: evaluate(rows, TRUTH), lambda report: finite_reals(rows)
    if kind == "truth":
        # no hostile value is a label, unless a list of ints casts it to one
        rows = placed(TRUTH, value, data)
        return (lambda: evaluate(SCORES, rows),
                lambda report: np.asarray(rows).dtype.kind in "iuf"
                and np.isin(rows, (-1, 0, 1)).all())
    if kind == "weights":
        parts = [[[0.0, 2.0], [2.0, 0.0]], [[1.0, 0.5], [0.5, 1.0]]]
        (weights,) = placed([[1.0, -0.5]], value, data)
        return (lambda: combine_correlations(parts, weights),
                lambda out: all(takes(w, False) for w in weights) and np.array_equal(
                    out, sum(w * np.asarray(S) for w, S in zip(weights, parts))))
    if kind == "laplacian":
        # symmetric, with value at two entries of one row
        S = [[0.0, 0.5, 0.2], [0.5, 0.0, 0.1], [0.2, 0.1, 0.0]]
        i = data.draw(st.integers(0, 2))
        for j in data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True)):
            S[i][j] = S[j][i] = value
        return (lambda: laplacian_of(S),
                lambda L: finite_reals(S)
                and np.array_equal(L, np.diag(np.sum(S, axis=1)) - np.asarray(S)))
    rows = placed([[0.5, -2.0], [3.0, 1.0]], value, data)
    out = io.StringIO()
    # NaN and the infinities are written and read back as they are
    return (lambda: save_matrix(rows, out),
            lambda _: np.asarray(rows).dtype.kind in "iuf" and np.array_equal(
                load_matrix(io.StringIO(out.getvalue())), rows, equal_nan=True))


@pytest.mark.parametrize(
    "kind", ["labels", "features", "assignment", "g", "model", "hyperparams", "mask",
             "kmeans", "split", "synthetic", "scores", "truth", "weights", "laplacian",
             "save_matrix"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=st.sampled_from(HOSTILE), data=st.data())
def test_each_constructor_holds_the_values_given_or_raises_value_error(kind, value, data):
    # no value is cast to something else, and none ends in another
    # exception or a numpy warning
    build, holds = hostile_case(kind, value, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            made = build()
        except ValueError:
            return
    assert holds(made)


@pytest.mark.parametrize("name, call", [
    ("max_iter", lambda: kmeans(FEATURES, 2, 0, max_iter=2.5)),
    ("seed", lambda: kmeans(FEATURES, 2, 1.5)),
    ("seed", lambda: kmeans(FEATURES, 2, -1)),
    ("seed", lambda: kmeans(FEATURES, 2, True)),
    ("seed", lambda: split(DATASET, 0.5, 1.5)),
    ("train_fraction", lambda: split(DATASET, "0.5", 0)),
    ("train_fraction", lambda: split(DATASET, None, 0)),
    ("train_fraction", lambda: split(DATASET, 10**400, 0)),
    ("l", lambda: make_synthetic(2.5, 20, 3, 2, 0.1, 0)),
    ("n", lambda: make_synthetic(5, True, 3, 2, 0.1, 0)),
    ("noise", lambda: make_synthetic(5, 20, 3, 2, "1", 0)),
    ("noise", lambda: make_synthetic(5, 20, 3, 2, 10**400, 0)),
    ("seed", lambda: make_synthetic(5, 20, 3, 2, 0.1, -1)),
    ("instance indices", lambda: take_instances(DATASET, [0, -1])),
    ("instance indices", lambda: take_instances(DATASET, [4])),
], ids=["kmeans-max_iter-2.5", "kmeans-seed-1.5", "kmeans-seed-minus-1", "kmeans-seed-True",
        "split-seed-1.5", "split-fraction-text", "split-fraction-None",
        "split-fraction-10**400", "synthetic-l-2.5", "synthetic-n-True",
        "synthetic-noise-text", "synthetic-noise-10**400", "synthetic-seed-minus-1",
        "take_instances-minus-1", "take_instances-n"])
def test_each_bad_argument_raises_a_value_error_that_names_it(name, call):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()
