"""The package imports only itself, NumPy's public namespace and the
standard library, all at module level; each module imports only the package
modules of lower layers; and only the CLI, the one writer of artifacts,
imports ``json``."""

import ast
import sys
from pathlib import Path

import levysym

SRC = Path(levysym.__file__).parent


def _allowed(module: str) -> bool:
    top, *rest = module.split(".")
    if top == "numpy":
        return not any(part.startswith("_") for part in rest)
    return top == "levysym" or top in sys.stdlib_module_names


def _imports(path: Path):
    """(line, module) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 5
    bad = [f"{path.name}:{line} imports {module}"
           for path in files for line, module in _imports(path) if not _allowed(module)]
    assert not bad, bad


#: the package modules each module may import (the layers of ``levysym/__init__.py``)
LAYERS = {
    "errors": set(),
    "rng": set(),
    "svgplot": set(),
    "measures": {"errors"},
    "symbols": {"errors"},
    "simulate": {"errors", "rng", "symbols"},
    "checks": {"errors", "measures", "symbols"},
    "mcstats": {"errors", "measures", "rng", "simulate", "symbols"},
    "selftest": {"checks", "measures"},
    "cli": {"checks", "errors", "mcstats", "selftest", "simulate", "svgplot", "symbols"},
}


def _package_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports, relatively or as ``levysym.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("levysym.") for alias in node.names
                         if alias.name.startswith("levysym."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "levysym"):
            module = (node.module or "").removeprefix("levysym").lstrip(".")
            # ``from . import rng, simulate``: the imported names are the modules
            names.update([module] if module else (alias.name for alias in node.names))
    return names


def test_modules_import_only_lower_layers():
    assert sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__") \
        == sorted(LAYERS)
    bad = [f"{module} imports {sorted(extra)}" for module in LAYERS
           if (extra := _package_imports(SRC / f"{module}.py") - LAYERS[module])]
    assert not bad, bad
    # the table is layered: each module may import only modules listed above it
    order = list(LAYERS)
    assert all(order.index(name) < order.index(module)
               for module, below in LAYERS.items() for name in below)


def test_no_module_imports_inside_a_function():
    nested = [f"{path.name}:{node.lineno}"
              for path in sorted(SRC.rglob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def test_only_the_cli_imports_json():
    importers = sorted(path.name for path in SRC.rglob("*.py")
                       if any(module.split(".")[0] == "json" for _, module in _imports(path)))
    assert importers == ["cli.py"]


def test_the_layer_rule_reads_relative_and_absolute_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\nimport levysym.rng\nfrom . import checks, simulate\n"
                    "from .measures import dirac\nfrom levysym.symbols import eval_symbol\n"
                    "from levysym import errors\nimport numpy as np\n")
    assert _package_imports(path) == {"rng", "checks", "simulate", "measures", "symbols",
                                      "errors"}


def test_the_import_rule_tells_the_allowed_names_apart():
    for module in ("levysym.rng", "numpy", "numpy.linalg", "math", "__future__", "json"):
        assert _allowed(module), module
    for module in ("numpy._core", "numpy.core._multiarray_umath", "scipy", "hypothesis",
                   "levysym_extra"):
        assert not _allowed(module), module
