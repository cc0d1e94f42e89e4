"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import wrkhs

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
MODULES = sorted(Path(wrkhs.__file__).parent.glob("*.py"))
# Exported for the tests to check the library against; nothing calls them.
ORACLES = {"fit_composite", "fit_schur", "predict_composite"}


def env_reads(tree: ast.AST) -> list[int]:
    """Line numbers where ``os.environ``/``os.getenv`` is named or imported."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for a in node.names if a.name in ENV_NAMES]
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # behaviour is set by arguments and config files, never by the environment
    assert env_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "from os import environ",
        "from os import getenv as g",
    ],
)
def test_detects_environment_reads(source):
    assert env_reads(ast.parse(source)) == [source.count("\n") + 1]


def private_imports(tree: ast.AST) -> list[int]:
    """Line numbers where an underscore name is imported from a sibling module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "wrkhs")
        for a in node.names
        if a.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    # what one module shares with another is public in the module it lives in
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from .regression import _ridge", [1]),
        ("from .core import is_int, _readonly as r", [1]),
        ("from wrkhs.kernels import _sqdist", [1]),
        ("from . import _private", [1]),
        ("from .core import is_int\nfrom numpy.linalg import _umath_linalg", []),
        ("from __future__ import annotations", []),
    ],
)
def test_detects_private_imports(source, lines):
    assert private_imports(ast.parse(source)) == lines


def ndim_one_tests(tree: ast.AST) -> list[int]:
    """Line numbers where an ``.ndim`` is compared ``== 1``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Attribute) and s.attr == "ndim" for s in sides) and any(
                isinstance(s, ast.Constant) and s.value == 1 for s in sides
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_one_input_rule(path):
    # what a 1-D input means is decided once, by core.as_samples
    assert ndim_one_tests(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "if x.ndim == 1:\n    x = x[:, None]",
        "flat = 1 == np.asarray(x).ndim",
        "y = x[None] if x.ndim == 1 else x",
    ],
)
def test_detects_ndim_one_tests(source):
    assert ndim_one_tests(ast.parse(source)) == [1]


FACTORIZATIONS = {"cholesky", "cho_factor", "cho_solve"}


def factorization_names(tree: ast.AST) -> list[int]:
    """Line numbers where a Cholesky routine is named or imported."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FACTORIZATIONS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for a in node.names if a.name in FACTORIZATIONS]
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_one_factorization(path):
    # every factorization goes through core.hermitian_factor, with its one jitter rule
    assert factorization_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import scipy.linalg\nlow = scipy.linalg.cholesky(a, lower=True)", [2]),
        ("from scipy.linalg import cho_factor as f", [1]),
        ("from scipy import linalg\nx = linalg.cho_solve(f, b)", [2]),
        ("from scipy.linalg import cholesky\nlow = cholesky(a)", [1, 2]),
        ("low = np.linalg.cholesky(a)", [1]),
        ("low = hermitian_factor(a)\nfrom .core import hermitian_solve", []),
    ],
)
def test_detects_factorization_names(source, lines):
    assert sorted(factorization_names(ast.parse(source))) == lines


def test_every_export_is_used_by_the_package():
    # a name only tests call belongs in the tests, not in the package
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    exported = {
        a.asname or a.name
        for node in ast.walk(trees.pop("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert exported - used - ORACLES == set()
