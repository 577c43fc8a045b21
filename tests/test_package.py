import ast
from pathlib import Path

import glocal


def test_every_exported_name_resolves_once():
    names = glocal.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"exported more than once: {repeated}"
    missing = [name for name in names if not hasattr(glocal, name)]
    assert not missing, f"exported but not defined: {missing}"


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10, and CI imports the tests under 3.10 too;
    # this checks syntax only, not stdlib APIs
    sources = sorted(Path(glocal.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert tests
    for path in sources + tests:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
