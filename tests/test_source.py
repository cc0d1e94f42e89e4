"""Static checks over the package source."""

import ast
import re
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


FACTORIZATIONS = {"cholesky", "cho_factor", "cho_solve", "get_lapack_funcs"}
# LAPACK's Cholesky routines in any precision, dense or packed (RFP), the RFP
# triangular solve and the packing routines, named or spelled as a string
LAPACK_FACTORIZATIONS = re.compile(r"[sdcz]?(potrf|potrs|pftrf|pftrs|tfsm|trttf|tfttr)")


def named(tree: ast.AST, is_name) -> list[int]:
    """Line numbers where a name, attribute, import or string constant is one
    that ``is_name`` accepts."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        lines += [node.lineno for name in names if is_name(name)]
    return lines


def factorization_names(tree: ast.AST) -> list[int]:
    """Line numbers where a Cholesky routine is named, imported or spelled."""
    return named(tree, lambda name: name in FACTORIZATIONS
                 or LAPACK_FACTORIZATIONS.fullmatch(name) is not None)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_one_factorization(path):
    # every factorization goes through core's one Cholesky, with its one jitter
    # rule, and every packing and packed solve is core's
    assert factorization_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def dense_triangle_names(tree: ast.AST) -> list[int]:
    """Line numbers where a dense Cholesky or rank-k update is named, imported
    or spelled."""
    return named(tree, lambda name: name in {"cholesky", "cho_factor", "cho_solve"}
                 or re.fullmatch(r"[sdcz]?(potrf|potrs|syrk|herk)", name) is not None)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_triangle_layout(path):
    # every ridge system is a packed (RFP) triangle; no dense one is built or factored
    assert dense_triangle_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from scipy.linalg import cho_factor, cho_solve", [1, 1]),
        ("low, info = lapack.dpotrf(a, lower=1)\nc = blas.dsyrk(-2.0, a)", [1, 2]),
        ("low, info = lapack.dpftrf(n, a)\nc = lapack.dsfrk(n, k, 1.0, a, 0.0, c)", []),
    ],
)
def test_detects_dense_triangle_names(source, lines):
    assert sorted(dense_triangle_names(ast.parse(source))) == lines


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import scipy.linalg\nlow = scipy.linalg.cholesky(a, lower=True)", [2]),
        ("from scipy.linalg import cho_factor as f", [1]),
        ("from scipy import linalg\nx = linalg.cho_solve(f, b)", [2]),
        ("from scipy.linalg import cholesky\nlow = cholesky(a)", [1, 2]),
        ("low = np.linalg.cholesky(a)", [1]),
        ("from scipy.linalg.lapack import dpotrf", [1]),
        ("from scipy.linalg import lapack\nlow, info = lapack.zpotrf(a, lower=1)", [2]),
        ("x, info = scipy.linalg.lapack.dpotrs(low, b)", [1]),
        ("potrf, = get_lapack_funcs(('potrf',), (a,))", [1, 1, 1]),
        ("from scipy.linalg import get_lapack_funcs", [1]),
        ("low = hermitian_factor(a)\nfrom .core import hermitian_solve, ridge_solve", []),
        ("f = getattr(lapack, 'dgetrf')\nrepotrf = 1", []),
        ("from scipy.linalg.lapack import dpftrf, zpftrs", [1, 1]),
        ("low, info = lapack.zpftrf(n, a, uplo='L')\nx = lapack.dtfsm(1.0, low, b)", [1, 2]),
        ("f, = get_lapack_funcs(('trttf',), (a,))\na = lapack.ztfttr(n, p)[0]", [1, 1, 2]),
    ],
)
def test_detects_factorization_names(source, lines):
    assert sorted(factorization_names(ast.parse(source))) == lines


def module_names(tree: ast.AST, module: str) -> list[int]:
    """Line numbers where ``module`` (or a submodule) is imported, imported
    from, or named."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines += [node.lineno for a in node.names if a.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == module:
            lines.append(node.lineno)
    return lines


FORKS = {"fork", "forkpty"}


def process_names(tree: ast.AST) -> list[int]:
    """Line numbers where ``multiprocessing`` is imported or named, or
    ``os.fork`` (``os.forkpty``) is named or imported."""
    lines = module_names(tree, "multiprocessing")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORKS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for a in node.names if a.name in FORKS]
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "channel.py"],
                         ids=lambda p: p.name)
def test_one_process_split(path):
    # the one place that starts processes is the trial split of channel.run_equalization
    assert process_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import multiprocessing\nctx = multiprocessing.get_context('fork')", [1, 2]),
        ("import multiprocessing as mp\np = mp.Process(target=f)", [1]),
        ("from multiprocessing import Pipe, Process", [1]),
        ("from multiprocessing.pool import Pool", [1]),
        ("import os\npid = os.fork()", [2]),
        ("from os import fork, getpid", [1]),
        ("pid = os.getpid()\ncores = len(os.sched_getaffinity(0))", []),
        ("import multiprocessing_helpers\nforks = 2", []),
    ],
)
def test_detects_process_names(source, lines):
    assert sorted(process_names(ast.parse(source))) == lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_one_foreign_library_call(path):
    # the one call into a C library by hand is core's OpenBLAS thread limit
    assert module_names(ast.parse(path.read_text(encoding="utf-8")), "ctypes") == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import ctypes\nlib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)", [1, 2]),
        ("from ctypes import CDLL, c_int", [1]),
        ("import ctypes.util as cu", [1]),
        ("address = arr.ctypes.data\nctypes_seen = 0", []),
    ],
)
def test_detects_ctypes_names(source, lines):
    assert sorted(module_names(ast.parse(source), "ctypes")) == lines


def syrk_names(tree: ast.AST) -> list[int]:
    """Line numbers where a rank-k update, dense (``?syrk``/``?herk``) or
    packed (``?sfrk``/``?hfrk``), is named, imported or spelled."""
    return named(tree, lambda name: re.fullmatch(r"[sdcz]?(syrk|herk|sfrk|hfrk)", name) is not None)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_one_gram_product(path):
    # the cross products of samples with themselves are kernels._sqdist's one sfrk
    assert syrk_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from scipy.linalg.blas import dsyrk", [1]),
        ("from scipy.linalg import blas\nc = blas.zherk(1.0, a)", [2]),
        ("syrk = getattr(blas, 'dsyrk')", [1, 1]),
        ("c = ar @ ar.T\nb = blas.dsyr(1.0, x, a=q)", []),
        ("from scipy.linalg.lapack import dsfrk", [1]),
        ("c = lapack.zhfrk(n, k, 1.0, a, 0.0, c)", [1]),
    ],
)
def test_detects_syrk_names(source, lines):
    assert sorted(syrk_names(ast.parse(source))) == lines


def symm_names(tree: ast.AST) -> list[int]:
    """Line numbers where a BLAS symmetric or Hermitian product (``?symm``/
    ``?hemm``) is named, imported or spelled."""
    return named(tree, lambda name: re.fullmatch(r"[sdcz]?(symm|hemm)", name) is not None)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_triangle_product(path):
    # predict applies rectangles of rows, whatever x* is; no Gram is read as a triangle
    assert symm_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from scipy.linalg.blas import dsymm", [1]),
        ("from scipy.linalg import blas\nc = blas.zhemm(1.0, a, b)", [2]),
        ('symm = getattr(blas, "dsymm")', [1, 1]),
        ("from scipy.linalg.blas import dsymv, zhemv\ny = blas.zhemv(1.0, a, x)", []),
    ],
)
def test_detects_symm_names(source, lines):
    assert sorted(symm_names(ast.parse(source))) == lines


# The one evaluation of sums of real Gaussians, and the complex Gaussian.
GAUSSIAN_LOOPS = {"_gaussian_sums", "ComplexGaussian"}


def exp_names(tree: ast.Module, allowed=frozenset()) -> list[int]:
    """Line numbers where ``exp`` is named, imported or spelled outside the
    top-level functions and classes named in ``allowed``."""
    return sorted(
        line
        for node in tree.body
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in allowed)
        for line in named(node, lambda name: name == "exp")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_gaussian_loop(path):
    # every real Gaussian is evaluated by kernels._gaussian_sums, tile by tile
    allowed = GAUSSIAN_LOOPS if path.name == "kernels.py" else frozenset()
    assert exp_names(ast.parse(path.read_text(encoding="utf-8")), allowed) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import numpy as np\ne = np.exp(-d2)", [2]),
        ("from math import exp\nv = exp(1.0)", [1, 2]),
        ("import cmath\nw = cmath.exp(1j)", [2]),
        ("f = getattr(np, 'exp')", [1]),
        ("def _gaussian_sums(d2):\n    return np.exp(d2)", []),
        ("class ComplexGaussian:\n    def _gram(self, x):\n        return np.exp(x)", []),
        ("class RealGaussian:\n    def _gram(self, d2):\n        return np.exp(-d2)", [3]),
        ("def _tiles(d2):\n    def _gaussian_sums(d):\n        return np.exp(d)", [3]),
        ("y = np.expm1(x)\nexpo = -d2", []),
    ],
)
def test_detects_exp_names(source, lines):
    assert exp_names(ast.parse(source), GAUSSIAN_LOOPS) == lines


CSV_WRITERS = {"writer", "DictWriter"}


def csv_writer_names(tree: ast.AST) -> list[int]:
    """Line numbers where ``csv.writer``/``csv.DictWriter`` is named or imported."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CSV_WRITERS
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            lines += [node.lineno for a in node.names if a.name in CSV_WRITERS]
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_csv_writer(path):
    # every CSV is written by cli._write_csv, one repr per distinct value
    assert csv_writer_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import csv\nw = csv.writer(fh)", [2]),
        ("import csv\nw = csv.DictWriter(fh, fields)", [2]),
        ("from csv import writer", [1]),
        ("from csv import reader, writer as w", [1]),
        ("rows = list(csv.reader(fh))\nlog.writer = None", []),
    ],
)
def test_detects_csv_writers(source, lines):
    assert csv_writer_names(ast.parse(source)) == lines


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
