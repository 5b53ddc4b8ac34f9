"""The library keeps zero runtime dependencies: nothing declared in
pyproject.toml, and no import in src/qdisk outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "dependencies" not in project.get("dynamic", [])


def imported_modules(path: Path) -> list:
    """Absolute module names imported anywhere in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_library_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "qdisk").glob("*.py"))
    assert len(sources) >= 9
    foreign = [f"{path.name}: {name}"
               for path in sources
               for name in imported_modules(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"qdisk"}]
    assert foreign == []


def test_cli_import_loads_no_heavy_standard_module():
    # Record stands in for dataclasses (which loads inspect), the suite pool
    # is imported lazily and QRat is not fractions: each costs every process
    # milliseconds of import
    heavy = ("dataclasses", "multiprocessing", "concurrent.futures", "fractions", "inspect")
    code = f"import sys, qdisk.cli, qdisk.uqaction; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_qfunc_defines_no_class_after_the_cli_loads():
    # the polynomial types of the q-integral checks live in tests/reference.py
    code = ("import sys, qdisk.cli, qdisk.uqaction; f = sys.modules['qdisk.qfunc']; "
            "print([n for n, v in vars(f).items() if isinstance(v, type) and v.__module__ == f.__name__])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_the_import_scan_sees_third_party_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom numpy.linalg import solve\nfrom . import x\n"
                    "def f():\n    import sympy\n")
    assert imported_modules(path) == ["os", "numpy.linalg", "sympy"]


def test_the_cli_takes_the_library_caps_and_defines_no_copy():
    from qdisk import cli, diskpoly, tensor

    for name, owner in (("MAX_DISK_DEGREE", diskpoly), ("MAX_SPHERICAL_TERMS", diskpoly),
                        ("MAX_ALPHA", tensor)):
        assert getattr(cli, name) is getattr(owner, name), name
    assert not hasattr(cli, "_check_disk")
    # identity cannot tell small ints apart, so no module-level assignment either
    tree = ast.parse((ROOT / "src" / "qdisk" / "cli.py").read_text())
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert assigned & {"MAX_DISK_DEGREE", "MAX_ALPHA", "MAX_SPHERICAL_TERMS"} == set()
