"""The test harness itself: failure reports, and the names the benchmark imports."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_prints_its_falsifying_example(pytester):
    # under the project's ini, where every warning is an error
    test_file = pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-c", str(ROOT / "pyproject.toml"),
                                           "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", test_file)
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1)


def benchmark_imports():
    """(file, module, name) of every ``torusmhd`` import in ``benchmarks/*.py``."""
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "torusmhd":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "torusmhd")


def test_every_name_the_benchmark_imports_resolves():
    """The benchmark imports these at module level: one missing name fails every run."""
    imports = list(benchmark_imports())
    assert imports
    missing = []
    for file, module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")  # a submodule, such as ``cli``
        except ModuleNotFoundError:
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []
