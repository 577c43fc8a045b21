import ast
import dataclasses
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
from glocal import FeatureMatrix, GlocalModel, Hyperparams, LabelMatrix, MaskSpec, Partition


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


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10, and CI imports the tests under 3.10 too;
    # this checks syntax only, not stdlib APIs
    sources = sorted(Path(glocal.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert tests
    for path in sources + tests:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# stdlib names newer than requires-python's 3.10, as (module, name); a
# module alone is given with name None, and a keyword as (function, keyword)
NEWER_THAN_3_10 = {
    ("itertools", "batched"),  # 3.12
    ("contextlib", "chdir"),  # 3.11
    ("tomllib", None),  # 3.11
    ("hashlib", "file_digest"),  # 3.11
    ("typing", "Self"),  # 3.11
    ("datetime", "UTC"),  # 3.11
    ("sys", "exception"),  # 3.11
    ("math", "cbrt"),  # 3.11
    ("math", "exp2"),  # 3.11
    ("enum", "StrEnum"),  # 3.11
    ("operator", "call"),  # 3.11
    ("typing", "Never"),  # 3.11
    ("typing", "assert_never"),  # 3.11
    ("typing", "LiteralString"),  # 3.11
    ("math", "sumprod"),  # 3.12
    ("typing", "override"),  # 3.12
}
NEWER_KEYWORDS = {
    ("a2b_base64", "strict_mode"),  # 3.11
    ("fmean", "weights"),  # 3.11
}


def newer_stdlib_uses(source):
    """Names from NEWER_THAN_3_10 and NEWER_KEYWORDS that source uses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if (a.name, None) in NEWER_THAN_3_10]
        elif isinstance(node, ast.ImportFrom):
            if (node.module, None) in NEWER_THAN_3_10:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names
                      if (node.module, a.name) in NEWER_THAN_3_10]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in NEWER_THAN_3_10:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call):
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            found += [f"{func}({k.arg}=)" for k in node.keywords
                      if (func, k.arg) in NEWER_KEYWORDS]
    return found


def test_the_stdlib_guard_finds_each_newer_name():
    source = "\n".join([
        "import itertools, tomllib", "from contextlib import chdir",
        "from typing import Self", "import hashlib, datetime, binascii",
        "itertools.batched(x, 2)", "hashlib.file_digest(f, 'sha256')",
        "datetime.UTC", "binascii.a2b_base64(s, strict_mode=True)",
        "import sys, math, enum, operator, typing, statistics",
        "from typing import Never, LiteralString", "from typing import override",
        "sys.exception()", "math.cbrt(8.0)", "math.exp2(3)", "math.sumprod(a, b)",
        "enum.StrEnum", "operator.call(f)", "typing.assert_never(x)",
        "statistics.fmean(xs, weights=ws)",
    ])
    assert sorted(newer_stdlib_uses(source)) == sorted([
        "tomllib", "contextlib.chdir", "typing.Self", "itertools.batched",
        "hashlib.file_digest", "datetime.UTC", "a2b_base64(strict_mode=)",
        "typing.Never", "typing.LiteralString", "typing.override", "sys.exception",
        "math.cbrt", "math.exp2", "math.sumprod", "enum.StrEnum", "operator.call",
        "typing.assert_never", "fmean(weights=)",
    ])


def test_sources_use_no_stdlib_name_newer_than_3_10():
    package = Path(glocal.__file__).parent
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        uses = newer_stdlib_uses(path.read_text(encoding="utf-8"))
        assert not uses, f"{path.name} uses {uses}, which Python 3.10 lacks"


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
           Decimal("0.5"), Fraction(1, 2), 10**400, -10**400)
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


def hostile_case(kind, value, data):
    """(a constructor call with value in one place, what holding it means)."""
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
    name = data.draw(st.sampled_from(["rho", "seed"]))
    return (lambda: MaskSpec(**{"rho": 30.0, "seed": 0, name: value}),
            lambda spec: holds_scalar(getattr(spec, name), value, name == "seed"))


@pytest.mark.parametrize(
    "kind", ["labels", "features", "assignment", "g", "model", "hyperparams", "mask"])
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
