"""Mutation check: do the tests still catch a fixed list of seeded faults?

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME [...]   # the named ones

Run it from the root of a source checkout. Each entry of ``MUTANTS``
replaces one piece of text in one file of the package. For each, ``src/``,
``tests/`` and ``pyproject.toml`` are copied into a fresh temporary
directory (the copied ``pyproject.toml`` puts the copied ``src/`` on pytest's
path, so the tests import the mutated package), the text is replaced, and
only the entry's tests run there. A mutant survives when they all pass.

First the named tests run once on an unmutated copy, and must pass. Then one
line per mutant reports ``killed``, ``SURVIVED`` or ``ERROR`` (pytest could
not run the tests, for instance a test id that no longer exists). Exits 1
when any mutant survives or errs. Nothing but pytest is used. A change that
kills a fault by hand adds it here, and ``tests/test_source.py`` checks that
every entry's old text occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


# each kills both writer mutants; the plain test first, since a run stops at its first failure
WRITER_TESTS = tuple(f"tests/test_cli.py::TestColumnWriter::{name}" for name in (
    "test_text_carried_across_blocks_matches_per_row_repr", "test_matches_csv_writer",
    "test_complex_columns_match_stacked_rows"))

MUTANTS = [
    Mutant("fit-lam-times-30", "src/wrkhs/regression.py",
           "ridge_solve(systems.pop(0), lam, part,", "ridge_solve(systems.pop(0), 30 * lam, part,",
           ("tests/test_regression.py::TestFitAugmented::test_schur_matches_direct",
            "tests/test_regression.py::TestPackedParity")),
    # the packed RFP layout
    Mutant("norm-map-even-only", "src/wrkhs/kernels.py",
           "        c, t = (n + 1) // 2, n % 2\n", "        c, t = (n + 1) // 2, 0\n",
           ("tests/test_kernels.py::TestSqdist",)),
    Mutant("diagonal-map-leading-half", "src/wrkhs/core.py",
           "np.arange(c) * step + 1 - t", "np.arange(c) * step + 1",
           ("tests/test_core.py::TestRidgeShift", "tests/test_regression.py::TestPackedParity")),
    Mutant("diagonal-map-trailing-half", "src/wrkhs/core.py",
           "np.arange(n - c) * step + t * n", "np.arange(n - c) * step + n",
           ("tests/test_core.py::TestRidgeShift", "tests/test_regression.py::TestPackedParity")),
    # the no-phase 2n system: J's row to the diagonal, then R's row from it
    Mutant("2n-drops-the-r-rows", "src/wrkhs/kernels.py",
           "cols[i, i + 1 : n + 1] = row[i:]", "pass",
           ("tests/test_regression.py::TestPackedParity",)),
    Mutant("2n-swaps-r-and-j", "src/wrkhs/kernels.py",
           "_gaussian_sums(d, gammas, [r, j, c],", "_gaussian_sums(d, gammas, [j, r, c],",
           ("tests/test_regression.py::TestPackedParity",)),
    # the Gaussian-sum loop: a sum written over the distances it still reads
    Mutant("gaussian-sums-reads-overwritten-distances", "src/wrkhs/kernels.py",
           "d2v[tile].copy() if copy else d2v[tile]", "d2v[tile]",
           ("tests/test_kernels.py::TestGaussianSums::test_given_outputs",
            "tests/test_regression.py::TestPackedParity")),
    # overflow refused at the boundary: kernel coefficients and the ridge weight
    Mutant("term-sum-skips-the-coefficient-bound", "src/wrkhs/kernels.py",
           "f.name), f.name)\n        self._check_coefficients()\n", "f.name), f.name)\n",
           ("tests/test_kernels.py::TestOverflowingCoefficients",)),
    Mutant("sum-of-separable-skips-the-coefficient-bound", "src/wrkhs/kernels.py",
           '"terms", terms)\n        self._check_coefficients()\n', '"terms", terms)\n',
           ("tests/test_kernels.py::TestOverflowingCoefficients",)),
    Mutant("ridge-shift-admits-an-overflowing-diagonal", "src/wrkhs/core.py",
           "if not np.isfinite(a[diagonal]).all():", "if False:",
           ("tests/test_core.py::TestRidgeShift",
            "tests/test_online.py::TestOverflowingRidgeWeight::test_streaming_ridge_predictions",
            "tests/test_cli.py::TestOverflowRefused::test_fit_ridge_weight")),
    Mutant("stream-admits-an-overflowing-ridge-weight", "src/wrkhs/online.py",
           "if not np.isfinite(shifted).all():", "if False:",
           ("tests/test_online.py::TestOverflowingRidgeWeight::test_observe_many",
            "tests/test_cli.py::TestOverflowRefused::test_bench_ridge_weight")),
    Mutant("cholesky-no-pivot-rule", "src/wrkhs/core.py",
           "if info == 0 and (retry or not n or pivots.min() > n * np.finfo(float).eps * "
           "pivots.max()):",
           "if info == 0:",
           ("tests/test_regression.py::TestTriangleContract::"
            "test_rank_deficient_gram_takes_the_jitter_once",)),
    # the budgeted recursion's self-check and thread scope
    Mutant("stream-keeps-every-thread", "src/wrkhs/online.py",
           "with limit_blas_threads(1), np.errstate(",
           "with limit_blas_threads(1 << 30), np.errstate(",
           ("tests/test_online_updates.py::TestObserveMany::test_the_loop_runs_at_one_blas_thread",)),
    Mutant("check-takes-the-exact-residual", "src/wrkhs/online.py",
           "residual = self._probe_residual()", "residual = self.inverse_residual()",
           ("tests/test_online_updates.py::TestProbeCheck::"
            "test_the_check_takes_neither_the_mirror_nor_the_full_product",)),
    Mutant("probe-reads-zero", "src/wrkhs/online.py",
           "        return max(\n", "        return 0.0 * max(\n",
           ("tests/test_online_updates.py::test_residual_above_tolerance_forces_a_rebuild",)),
    Mutant("stream-admits-non-finite-coefficients", "src/wrkhs/online.py",
           "        raise FloatingPointError\n", "        pass\n",
           ("tests/test_online.py::TestOverflowingTarget",)),
    Mutant("skip-test-squares-in-python", "src/wrkhs/online.py",
           "np.float64(abs(err)) ** 2 / gamma", "abs(err) ** 2 / gamma",
           ("tests/test_online.py::TestOverflowingTarget",)),
    Mutant("probe-block-all-ones", "src/wrkhs/online.py",
           "np.where(draws < 0.5, -1.0, 1.0)", "np.where(draws < 0.5, 1.0, 1.0)",
           ("tests/test_online_updates.py::TestProbeCheck::"
            "test_the_probe_block_of_a_grown_model_extends_the_smaller_one",
            "tests/test_online_updates.py::TestProbeCheck::"
            "test_a_drift_an_all_ones_probe_cannot_see_forces_a_residual")),
    # the one commit point of the budgeted recursion
    Mutant("tail-commits-a-singular-skip", "src/wrkhs/online.py",
           "        if full and r == m:\n",
           "        if full and r == m and gamma > 1e-12 * c:\n",
           ("tests/test_online_updates.py::test_full_budget_singular_fallback_drops_the_newcomer",)),
    Mutant("tail-drops-the-replacement-count", "src/wrkhs/online.py",
           'stats["replacements"] += full', "pass",
           ("tests/test_online_updates.py::TestStats::test_counts_add_up_on_a_degenerate_stream",)),
    # what a fit reports
    Mutant("ridge-solve-drops-the-jitter", "src/wrkhs/core.py",
           "return packed_solve(low, b), shift", "return packed_solve(low, b), lam",
           ("tests/test_regression.py::TestFitInfo::"
            "test_jitter_retry_logs_once_and_reports_its_shift",)),
    Mutant("ridge-factor-drops-the-jitter", "src/wrkhs/core.py",
           "return low, lam + jitter", "return low, lam",
           ("tests/test_core.py::TestHermitianFactor::"
            "test_jitter_retry_factors_a_singular_matrix_once",)),
    Mutant("residual-swaps-the-shifts", "src/wrkhs/regression.py",
           "self.shifts[0] * b.real + 1j * self.shifts[-1] * b.imag",
           "self.shifts[-1] * b.real + 1j * self.shifts[0] * b.imag",
           ("tests/test_cli.py::TestTrainingMse::test_matches_a_prediction_after_the_jitter_retry",)),
    Mutant("residual-drops-h", "src/wrkhs/regression.py",
           "return self.h * (self.shifts[0]", "return (self.shifts[0]",
           ("tests/test_regression.py::TestFitInfo::test_residual_is_the_training_error",)),
    Mutant("jitter-logged-at-debug", "src/wrkhs/core.py",
           '_log.warning("Cholesky of order', '_log.debug("Cholesky of order',
           ("tests/test_core.py::TestHermitianFactor::test_jitter_retry_logs_one_warning",)),
    Mutant("no-small-system-order", "src/wrkhs/core.py",
           "SMALL_SYSTEM_ORDER = 512", "SMALL_SYSTEM_ORDER = 0",
           ("tests/test_core.py::TestSmallSystemThreads",)),
    # the packed inverse a rebuild takes, and what a stream reports
    Mutant("ridge-inverse-inverts-the-upper-triangle", "src/wrkhs/core.py",
           'pftri(n, low, uplo="L"', 'pftri(n, low, uplo="U"',
           ("tests/test_core.py::TestRidgeInverse::test_matches_the_dense_inverse",)),
    Mutant("ridge-inverse-holds-the-failed-buffer", "src/wrkhs/core.py",
           "ridge_factor(held.pop(), 0.0, rebuild)", "ridge_factor(held[0], 0.0, rebuild)",
           ("tests/test_core.py::TestRidgeInverse::test_duplicate_rows_take_one_jitter_retry",)),
    # a jitter retry builds afresh with no failed buffer held: only the system that failed
    Mutant("ridge-solve-holds-the-failed-buffer", "src/wrkhs/core.py",
           "ridge_factor(held.pop(), lam, rebuild)", "ridge_factor(held[0], lam, rebuild)",
           ("tests/test_regression.py::TestTriangleContract::"
            "test_jitter_retry_holds_one_build_of_the_systems",)),
    Mutant("split-retry-rebuilds-both-systems", "src/wrkhs/regression.py",
           "spec._ridge_systems(x, k)[1][0]", "spec._ridge_systems(x)[1][k]",
           ("tests/test_regression.py::TestTriangleContract::"
            "test_jitter_retry_holds_one_build_of_the_systems",)),
    Mutant("stream-error-drops-the-predictions", "src/wrkhs/online.py",
           "    error.predictions = preds.copy()\n", "",
           ("tests/test_online.py::TestOverflowingTarget::test_observe_many",)),
    Mutant("rebuild-drops-the-jitter", "src/wrkhs/online.py",
           'stats["jitter_max"] = max(stats["jitter_max"], jitter)', "pass",
           ("tests/test_online.py::TestJitter::test_singular_rebuilds_report_their_jitter",)),
    Mutant("forced-rebuild-drops-the-jitter", "src/wrkhs/online.py",
           'self.stats["jitter_max"] = max(self.stats["jitter_max"], jitter)', "pass",
           ("tests/test_online.py::TestJitter::test_singular_rebuilds_report_their_jitter",)),
    # the one-pass check of a full matrix
    Mutant("hermitian-check-drops-the-conjugate", "src/wrkhs/core.py",
           "gap = np.conj(a)\n", "gap = np.array(a)\n",
           ("tests/test_core.py::TestHermitianSolve",)),
    Mutant("hermitian-check-drops-the-finite-test", "src/wrkhs/core.py",
           "if not math.isfinite(asym) and not np.isfinite(a).all():", "if False:",
           ("tests/test_core.py::test_every_solver_check_names_its_operand",)),
    # the CSV writer
    Mutant("writer-formats-numpy-scalars", "src/wrkhs/cli.py",
           "c[start : start + CSV_BLOCK_ROWS].tolist()", "c[start : start + CSV_BLOCK_ROWS]",
           WRITER_TESTS),
    Mutant("writer-block-drops-its-line-end", "src/wrkhs/cli.py",
           'zip(*text))) + "\\r\\n")', "zip(*text))))",
           WRITER_TESTS),
    # the equalization config's field checks
    Mutant("channel-config-skips-snr-db", "src/wrkhs/channel.py",
           "        _snr_ratio(self.snr_db)\n", "",
           ("tests/test_cli.py::TestBench::test_equalization_field_refused_by_name",)),
    Mutant("channel-config-skips-source-scale", "src/wrkhs/channel.py",
           '("taps", "c2", "c3", "source_scale")', '("taps", "c2", "c3")',
           ("tests/test_cli.py::TestBench::test_equalization_field_refused_by_name",)),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest on ``tests`` in a fresh copy of the checkout, with ``mutant`` applied."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="wrkhs-mutant-") as tmp:
        copy_tree(Path(tmp))
        if mutant is not None:
            target = Path(tmp) / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"mutants: {mutant.name}: the old text does not occur "
                                 f"exactly once in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in chosen for t in m.tests})
    baseline = run_tests(tests)
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:] + baseline.stderr[-2000:])
        print("mutants: the named tests fail on the unmutated copy")
        return 1
    bad = []
    for mutant in chosen:
        proc = run_tests(mutant.tests, mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
        print(f"{verdict}: {mutant.name} ({mutant.path})", flush=True)
        if verdict != "killed":
            bad.append(mutant.name)
            if verdict == "ERROR":
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print(f"mutants: {len(chosen) - len(bad)} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
