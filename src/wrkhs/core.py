"""The complex dataset container, input checks and Hermitian solves.

``as_samples`` is the one rule for sample matrices: datasets, models, kernel
evaluations (hence predictions) and the streaming ridge shape and check their
inputs through it. ``as_sample`` is its rule for one sample, which the online
recursion observes. ``check_lam`` checks every ridge weight, ``as_float``
reads every other number of a config or JSON file, and ``to_pairs``/
``from_pairs`` carry every complex value through JSON as ``[re, im]``.

``store_as_annotated`` is the one rule for config fields: each config
dataclass calls it first in ``__post_init__`` to store every field as its
annotation says, so equal configs serialize, and hash, equally.

Every ridge system is held as LAPACK's rectangular full packed (RFP) lower
triangle (``transr="N"``; Gustavson et al., ACM TOMS 37(2), 2010): the
n (n + 1) / 2 entries of an order-n matrix in one 1-D buffer.
``ridge_factor`` shifts a Gram as the kernels hand it over
(``kernels.KernelSpec._gram(x, x)``) and factors it in place by the one
Cholesky, ``?pftrf``, with one jitter retry, which logs a ``WARNING`` on the
``wrkhs.core`` logger; it returns the diagonal shift it factored, so a fit
can report it. ``packed_solve`` and ``packed_forward`` solve by the factor.
``ridge_solve`` factors through it and solves (an exactly diagonal system by
division), and ``ridge_inverse`` inverts its factor (``?pftri``) for
``Wrkls``'s rebuild. A system of order below ``SMALL_SYSTEM_ORDER`` is
factored, solved and inverted on one BLAS thread (``limit_blas_threads``).
``packed`` and ``unpacked`` convert full matrices, the latter through
``mirror_lower``, the one mirror of a lower triangle. ``hermitian_solve``,
the tests' full-matrix oracle, solves a full matrix after checking that the
right-hand side is finite and, in one pass, that the matrix is finite and
Hermitian to ``HERMITIAN_ATOL``; an exactly diagonal system is solved by
division. No package path calls it.
``stacked_apply`` lets a real matrix act on a complex right-hand side as one
real call on its stacked real and imaginary parts.

``limit_blas_threads`` caps the thread pools of the OpenBLAS copies numpy and
scipy have loaded for the length of a block, so that processes running BLAS
side by side share the cores instead of each taking all of them, and small
solves do not wait for a pool.

All functions here but the ``ridge_*`` ones and ``mirror_lower``, which work
in the buffer they are given, and ``limit_blas_threads``, which sets this
process's BLAS thread counts, are pure; arrays returned by dataset
containers are read-only and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import inspect
import itertools
import logging
import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import get_lapack_funcs

__all__ = [
    "NumericalError",
    "ComplexDataset",
    "as_samples",
    "as_sample",
    "check_lam",
    "as_float",
    "to_pairs",
    "from_pairs",
    "check_seed",
    "store_as_annotated",
    "is_int",
    "ridge_shift",
    "ridge_solve",
    "ridge_factor",
    "ridge_inverse",
    "packed_solve",
    "packed_forward",
    "packed",
    "unpacked",
    "packed_order",
    "packed_diagonal",
    "hermitian_solve",
    "mirror_lower",
    "limit_blas_threads",
]

# Max acceptable |A - A^H| entry before a matrix is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12

# Systems of a lower order are factored and solved on one BLAS thread. A packed
# Cholesky and solve on a 2-core shared host, 2 threads against 1, median of 21
# alternating calls each after 5 ms of Python work: order 128 0.41 against 0.48
# ms (in another run 8.3 against 0.39: waking the pool can cost more than the
# solve), 256 0.88 against 0.90, 384 1.58 against 1.32, 512 2.87 against 3.47,
# 768 6.3 against 8.5, 1024 11.3 against 12.6, 1536 32 against 47.
SMALL_SYSTEM_ORDER = 512

# The OpenBLAS that numpy's and scipy's Linux wheels each ship in the package's
# ``<name>.libs`` directory; its thread calls end in ``64_`` (numpy's) or not.
OPENBLAS_LIBRARIES = "libscipy_openblas*.so"


_log = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """A linear solve or factorization failed (indefinite/singular system)."""


def as_samples(x, name: str) -> np.ndarray:
    """``x`` as an (n, d) complex128 matrix whose rows are samples.

    A 1-D input is n scalar samples. Any other shape that is not 2-D, or a
    NaN or infinite entry, raises ``ValueError`` naming ``name``.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be (n, d) or (n,), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_sample(x, name: str) -> np.ndarray:
    """``x`` as one sample, a (1, d) complex128 row with ``d >= 1``.

    A 0-d, (d,) or (1, d) input is one sample. Any other shape, or a NaN or
    infinite entry, raises ``ValueError`` naming ``name``.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] != 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be one sample: 0-d, (d,) or (1, d), got {np.shape(x)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_lam(lam) -> float:
    """The ridge weight as a float, rejected unless finite and ``>= 0``."""
    lam = as_float(lam, "ridge weight")
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"ridge weight must be finite and >= 0, got {lam}")
    return lam


def as_float(value, name: str) -> float:
    """A config or JSON number (or numeric string) as a float; a bool is not one."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def to_pairs(value) -> list:
    """A complex scalar as ``[re, im]``, a sequence or 1-D array of them as a
    list of such pairs, every part a Python float."""
    return np.array(value, dtype=np.complex128)[..., None].view(np.float64).tolist()


def from_pairs(value, name: str) -> np.ndarray:
    """Inverse of :func:`to_pairs` (one pair gives a 0-d array), bit-exact, sign of zero
    included. A ragged list, an entry that is not a pair, a string or a bool
    raises ``ValueError`` naming ``name``."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = np.asarray(None)
    if (arr.dtype.kind not in "iuf" or arr.ndim not in (1, 2) or arr.shape[-1] != 2
            # numpy reads a bool among numbers as one; the entries' types show it
            or bool in set(map(type, itertools.chain.from_iterable(value) if arr.ndim == 2
                                     else value))):
        raise ValueError(f"{name} must be an [re, im] pair of numbers or a list of them")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def is_int(value) -> bool:
    """True for an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def store_as_annotated(config) -> None:
    """Store each field of the frozen dataclass ``config`` as its annotation says.

    ``int`` holds an integer, never a float or a bool (``int | None`` may
    hold None too); ``float`` is stored as :func:`as_float` of the value;
    ``complex`` and ``tuple[complex, complex]`` take a Python number or a
    tuple of them, or ``[re, im]`` pairs read by :func:`from_pairs`, and the
    count must match. Other fields are left alone.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type if isinstance(f.type, str) else inspect.formatannotation(f.type)
        if kind in ("int", "int | None") and (value is not None or kind == "int"):
            if not is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            value = int(value)
        elif kind == "float":
            value = as_float(value, f.name)
        elif kind in ("complex", "tuple[complex, complex]"):
            value = _as_complex(value, f.name, () if kind == "complex" else (2,))
        object.__setattr__(config, f.name, value)


def _as_complex(value, name: str, shape: tuple):
    """A complex number (``shape == ()``) or a tuple of ``shape[0]`` of them."""
    native = isinstance(value, (numbers.Number, tuple)) and not isinstance(value, bool)
    arr = np.asarray(value, dtype=np.complex128) if native else from_pairs(value, name)
    if arr.shape != shape:
        what = f"a list of {shape[0]} [re, im] pairs" if shape else "one [re, im] pair"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return tuple(arr.tolist()) if shape else complex(arr)


def check_seed(seed, name: str = "seed", count: int = 1) -> None:
    """Reject a seed that is not an integer or whose ``count`` consecutive
    generator keys ``seed .. seed + count - 1`` leave ``[0, 2**64)``."""
    if not (is_int(seed) and 0 <= seed <= 2**64 - count):
        raise ValueError(f"{name} must be an integer in [0, 2**64 - {count}], got {seed!r}")


def packed_order(a: np.ndarray) -> int:
    """The order n of the RFP triangle ``a``, which holds n (n + 1) / 2 entries."""
    return (math.isqrt(8 * len(a) + 1) - 1) // 2


def packed_diagonal(n: int) -> np.ndarray:
    """Where an order-n RFP triangle holds its diagonal: heading each of its
    first ceil(n/2) columns below the trailing triangle, then that triangle's."""
    c, t = (n + 1) // 2, n % 2
    step = n + 2 - t  # one column (n + 1 - t entries) and one row further
    return np.concatenate([np.arange(c) * step + 1 - t, np.arange(n - c) * step + t * n])


def packed(a) -> np.ndarray:
    """The lower triangle of the square ``a``, in floating point, as an RFP
    triangle (``?trttf``); the strict upper triangle is not read."""
    a = np.asarray(a, dtype=np.result_type(np.asarray(a), np.float64))
    trttf, = get_lapack_funcs(("trttf",), (a,))
    return trttf(a, uplo="L")[0]


def unpacked(a: np.ndarray, conj: bool = True) -> np.ndarray:
    """The square matrix of the RFP triangle ``a`` (``?tfttr``), its strict
    upper triangle mirrored from the lower one. A complex Hermitian triangle
    holds its trailing triangle conjugated, as ``?trttf`` packs it; a complex
    symmetric one (``conj=False``) is laid out as its real and imaginary parts."""
    if np.iscomplexobj(a) and not conj:
        return unpacked(a.real) + 1j * unpacked(a.imag)
    n = packed_order(a)
    tfttr, = get_lapack_funcs(("tfttr",), (a,))
    return mirror_lower(tfttr(n, a, uplo="L")[0][:n])  # n = 0 gives a row


def ridge_shift(a: np.ndarray, lam: float) -> np.ndarray:
    """Add ``lam`` to the diagonal of the RFP triangle ``a`` in place and return
    it; ``ValueError`` naming the ridge weight when a shifted entry is not finite."""
    diagonal = packed_diagonal(packed_order(a))
    with np.errstate(over="ignore", invalid="ignore"):
        a[diagonal] += lam
    if not np.isfinite(a[diagonal]).all():
        raise ValueError(f"ridge weight {lam!r} overflows the diagonal of A + lam I")
    return a


def ridge_solve(a: np.ndarray, lam: float, b, rebuild) -> tuple[np.ndarray, float]:
    """Solve ``(A + lam I) X = B`` in the buffer ``a``, the RFP triangle of the
    Hermitian (n, n) ``A``, for an (n,) or (n, k) ``B``; returns ``X`` and the
    diagonal shift the solved system carried.

    ``B``'s shape is checked before ``a`` is written. An exactly diagonal
    system is shifted by ``lam`` and solved by elementwise division; any other
    is factored by :func:`ridge_factor`, which overwrites ``a`` and takes
    ``rebuild()`` for its jitter retry, and solved by :func:`packed_solve`.
    The solution is complex when ``B`` is.
    """
    n = packed_order(a)
    b = np.asarray(b)
    if b.shape[0] != n:
        raise ValueError(f"shape mismatch: A is {(n, n)}, B is {b.shape}")
    if np.count_nonzero(a) > np.count_nonzero(a[packed_diagonal(n)]):  # a non-zero off it
        held = [a]
        del a  # so that no reference keeps a failed factorization through the retry
        low, shift = ridge_factor(held.pop(), lam, rebuild)
        return packed_solve(low, b), shift
    d = ridge_shift(a, lam)[packed_diagonal(n)]
    if np.any(d.real <= 0) or np.any(d.imag != 0):
        raise NumericalError("diagonal matrix A + lam I is not positive definite")
    d = d.real
    return b / (d[:, None] if b.ndim > 1 else d), lam


def ridge_factor(a: np.ndarray, lam: float, rebuild) -> tuple[np.ndarray, float]:
    """The Cholesky factor ``L`` of ``A + lam I = L L^H``, factored in place in
    the buffer ``a``, the RFP triangle of the Hermitian (n, n) ``A``, and the
    diagonal shift that was factored: the package's one Cholesky.

    ``L`` is returned as the RFP triangle it is factored in, ``a`` itself, with
    the shift ``lam``. A first factor with a pivot ``L_ii^2`` of at most
    ``n eps`` times the largest has failed too. After a failure the failed
    buffer is dropped, ``rebuild()`` returns ``A`` afresh, ``lam`` and the
    jitter ``1e-12 * trace/n`` of ``A + lam I`` go on its diagonal, one
    ``WARNING`` is logged on ``wrkhs.core``, and it is factored once more,
    with the shift ``lam + jitter``; then :class:`NumericalError` is raised.
    """
    a, n, jitter = ridge_shift(a, lam), packed_order(a), 0.0
    for retry in (False, True):
        with _sized_pool(n):
            low, info = get_lapack_funcs(("pftrf",), (a,))[0](n, a, uplo="L", overwrite_a=1)
        pivots = np.square(low[packed_diagonal(n)].real)
        if info == 0 and (retry or not n or pivots.min() > n * np.finfo(float).eps * pivots.max()):
            return low, lam + jitter
        del a, low
        if retry:
            raise NumericalError("Cholesky factorization failed; matrix appears indefinite")
        a = ridge_shift(rebuild(), lam)
        jitter = 1e-12 * float(np.mean(a[packed_diagonal(n)].real))
        _log.warning("Cholesky of order %d failed; retrying with jitter %.6g on the diagonal",
                     n, jitter)
        ridge_shift(a, jitter)


def ridge_inverse(a: np.ndarray, rebuild) -> tuple[np.ndarray, float]:
    """``A^-1`` as the lower triangle of an (n, n) F-ordered array, zero above
    it, and the jitter factored: :func:`ridge_factor` at ``lam = 0`` in the
    RFP triangle ``a`` of the Hermitian (n, n) ``A``, ``rebuild()`` giving
    ``A`` afresh for the retry, then ``?pftri`` in place and ``?tfttr``. A
    failed inversion raises :class:`NumericalError`."""
    held = [a]
    del a  # so that no reference keeps a failed factorization through the retry
    low, jitter = ridge_factor(held.pop(), 0.0, rebuild)
    n = packed_order(low)
    pftri, tfttr = get_lapack_funcs(("pftri", "tfttr"), (low,))
    with _sized_pool(n):
        inv, info = pftri(n, low, uplo="L", overwrite_a=1)
    if info != 0:
        raise NumericalError(f"inverse of the order-{n} Cholesky factor failed")
    return tfttr(n, inv, uplo="L")[0][:n], jitter  # n = 0 gives a row


def packed_solve(low: np.ndarray, b) -> np.ndarray:
    """``(L L^H)^-1 B`` (``?pftrs``) for the RFP triangle ``low`` of a
    lower-triangular ``L`` and an (n,) or (n, k) ``B``; complex when ``B`` is."""
    def solve(m, rhs):
        return get_lapack_funcs(("pftrs",), (m, rhs))[0](len(rhs), m, rhs, uplo="L")[0]
    with _sized_pool(packed_order(low)):
        return stacked_apply(solve, low, b)


def packed_forward(low: np.ndarray, b) -> np.ndarray:
    """``L^-1 B`` (``?tfsm``), with ``low`` and ``B`` as :func:`packed_solve` takes them."""
    def solve(m, rhs):
        return get_lapack_funcs(("tfsm",), (m, rhs))[0](1.0, m, rhs, uplo="L")
    with _sized_pool(packed_order(low)):
        return stacked_apply(solve, low, b)


def _sized_pool(n: int):
    """One BLAS thread for a system of order below ``SMALL_SYSTEM_ORDER``, which
    one thread factors and solves about as fast, without waiting for a pool to
    wake; a larger one keeps the pools as they are."""
    return limit_blas_threads(1) if n < SMALL_SYSTEM_ORDER else contextlib.nullcontext()


def hermitian_solve(a, b) -> np.ndarray:
    """Solve ``A X = B`` for a Hermitian positive-definite (n, n) ``A`` (real
    symmetric too) and an (n,) or (n, k) ``B``, complex even when ``A`` is real.

    A non-square ``A``, a NaN or infinite entry of ``A`` or ``B``, or an ``A``
    whose max asymmetry ``|A - A^H|`` exceeds ``1e-12``, raises ``ValueError``
    naming the operand; the asymmetry, NaN or infinite when an entry of ``A``
    is, takes one pass and one n x n temporary, freed before ``A``'s packed
    lower triangle (:func:`packed`) is solved by :func:`ridge_solve` (exactly
    diagonal matrices by elementwise division, exact; others by the one
    Cholesky and its jitter retry, then :class:`NumericalError`). ``A`` is
    left as it is.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if not np.isfinite(b).all():
        raise ValueError("B contains non-finite values")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow
        gap = np.conj(a)
        gap -= a.T  # conj(A) - A^T, the transpose of A^H - A
        np.abs(gap, out=gap)
    asym = float(gap.real.max(initial=0.0))
    del gap
    if not math.isfinite(asym) and not np.isfinite(a).all():
        raise ValueError("A contains non-finite values")
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return ridge_solve(packed(a), 0.0, b, lambda: packed(a))[0]


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """The square ``a`` with its strict upper triangle set from its lower one,
    conjugated (Hermitian), in place one column at a time; returns ``a``."""
    for j in range(1, a.shape[0]):
        a[:j, j] = a[j, :j].conj()
    return a


def stacked_apply(fn, a: np.ndarray, b) -> np.ndarray:
    """``fn(a, b)`` for an ``fn`` linear in the rows of ``b``.

    A real ``a`` with a complex ``b`` takes one call on the real and imaginary
    parts of ``b`` stacked as columns, so ``a`` is never copied to complex.
    """
    b = np.asarray(b)
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return fn(a, b)
    n = b.shape[0]
    sol = fn(a, np.concatenate([b.real.reshape(n, -1), b.imag.reshape(n, -1)], axis=1))
    k = sol.shape[1] // 2
    return (sol[:, :k] + 1j * sol[:, k:]).reshape(sol.shape[:1] + b.shape[1:])


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ComplexDataset:
    """n complex input vectors with n complex targets.

    ``X`` is an (n, d) complex matrix whose rows are samples (a 1-D ``X`` is
    n scalar samples, see :func:`as_samples`); ``y`` holds the n complex
    targets. Arrays are copied and made read-only on construction;
    NaN or infinite entries are rejected.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_samples(self.X, "X")
        y = np.asarray(self.y, dtype=np.complex128)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("dataset needs n >= 1 samples and d >= 1 dimensions")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        object.__setattr__(self, "X", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@functools.cache
def _openblas_pools() -> tuple[tuple, ...]:
    """``(get, set)`` of the thread count of each OpenBLAS copy that numpy's or
    scipy's wheel has loaded into this process. Each is opened as threadpoolctl
    opens it: ``dlopen`` with ``RTLD_NOLOAD`` opens a library only if it is loaded.

    Found once per process: this module imports ``scipy.linalg``, so both
    copies are loaded before the first call, and a forked child keeps them at
    the same addresses."""
    pools = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
        for path in sorted(libs.glob(OPENBLAS_LIBRARIES)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except OSError:  # not loaded
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    return tuple(pools)


@contextlib.contextmanager
def limit_blas_threads(limit: int):
    """Run the block with each loaded OpenBLAS thread pool at ``min(its count,
    limit)`` threads, and give every pool its count back on exit.

    numpy and scipy each load an OpenBLAS of their own, each with its own
    pool; both are set, through ``ctypes`` on the libraries already loaded.
    No environment variable is read, and with no OpenBLAS loaded nothing
    happens. The counts belong to this process, not to the calling thread.
    """
    pools = _openblas_pools()
    before = [get() for get, _ in pools]
    try:
        for (_, put), count in zip(pools, before):
            put(min(count, limit))
        yield
    finally:
        for (_, put), count in zip(pools, before):
            put(count)
