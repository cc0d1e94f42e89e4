"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The heavy equalization runs (criteria 7 and 8) share a
session fixture.
"""

import time

import numpy as np
import pytest

from wrkhs import (
    ChannelConfig,
    ComplexDataset,
    ComplexGaussian,
    EqualizationConfig,
    IndependentGaussian,
    RealGaussian,
    SumOfSeparable,
    Wrkls,
    fit_augmented,
    fit_srkhs,
    generate_source,
    predict,
    run_equalization,
    run_exp1,
    run_exp2,
    trial_rngs,
)
from wrkhs.cli import main as cli_main
from wrkhs.core import hermitian_solve
from conftest import (
    experiment1,
    experiment2,
    fit_composite,
    fit_schur,
    kernel_value,
    min_composite_eigenvalue,
    predict_composite,
    pseudo_value,
    random_inputs,
    zoo_specs,
)

RHO_CIRCULAR = 1.0 / np.sqrt(2.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_problem(rng, d_max=3, n_max=30):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    x = random_inputs(rng, n, d)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexDataset(X=x, y=y), random_inputs(rng, 6, d)


class TestCriterion1ThreePathEquivalence:
    def test_three_paths_agree(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(100)
        specs = zoo_specs()
        worst = 0.0
        for _ in range(50):
            data, x_star = random_problem(rng)
            lam = float(rng.uniform(0.3, 1.5))
            for spec in specs.values():
                p_direct = predict(fit_augmented(data, spec, lam), x_star)
                p_schur = predict(fit_schur(data, spec, lam), x_star)
                p_com = predict_composite(
                    spec, data.X, fit_composite(data, spec, lam), x_star
                )
                worst = max(
                    worst,
                    float(np.max(np.abs(p_direct - p_schur))),
                    float(np.max(np.abs(p_direct - p_com))),
                )
        elapsed = time.monotonic() - t0
        report(
            1,
            "three-path equivalence",
            worst <= 1e-8 and elapsed < 10.0,
            f"max prediction difference {worst:.2e} over 50 problems x 6 families "
            f"(tol 1e-8), {elapsed:.1f}s (< 10 s)",
        )


class TestCriterion2ConjugateStructure:
    def test_augmented_solution_conjugate_halves(self):
        rng = np.random.default_rng(200)
        specs = zoo_specs()
        worst = 0.0
        for _ in range(50):
            data, _ = random_problem(rng)
            lam = float(rng.uniform(0.3, 1.5))
            n = data.n
            for spec in specs.values():
                k = np.asarray(spec.gram(data.X), dtype=complex)
                kt = np.asarray(spec.pseudo_gram(data.X), dtype=complex)
                kbar = np.block([[k, kt], [kt.conj(), k.conj()]])
                kbar = (kbar + kbar.conj().T) / 2 + lam * np.eye(2 * n)
                abar = hermitian_solve(kbar, np.concatenate([data.y, data.y.conj()]))
                worst = max(worst, float(np.max(np.abs(abar[n:] - abar[:n].conj()))))
        report(
            2,
            "conjugate structure",
            worst <= 1e-9,
            f"max |tail - conj(head)| {worst:.2e} (tol 1e-9)",
        )


class TestCriterion3KernelLaws:
    def test_kernel_law_suite(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(300)
        specs = zoo_specs()
        cases = 0
        ok = True
        msgs = []

        # Hermitian symmetry + pseudo complex symmetry, all families
        for name, spec in specs.items():
            for _ in range(170):
                d = int(rng.integers(1, 4))
                x = random_inputs(rng, 1, d)[0]
                z = random_inputs(rng, 1, d)[0]
                k_xz = kernel_value(spec, x, z)
                k_zx = kernel_value(spec, z, x)
                if abs(k_xz - np.conj(k_zx)) > 1e-12 * max(1.0, abs(k_xz)):
                    ok = False
                    msgs.append(f"hermitian violation in {name}")
                pk_xz = pseudo_value(spec, x, z)
                pk_zx = pseudo_value(spec, z, x)
                if abs(pk_xz - pk_zx) > 1e-12 * max(1.0, abs(pk_xz)):
                    ok = False
                    msgs.append(f"pseudo symmetry violation in {name}")
                cases += 2

        # strictly-complex structure: Re symmetric, Im skew-symmetric
        for spec in (specs["complex_gaussian"], specs["independent"]):
            for _ in range(100):
                x = random_inputs(rng, 1, 2)[0]
                z = random_inputs(rng, 1, 2)[0]
                a, b = kernel_value(spec, x, z), kernel_value(spec, z, x)
                if abs(a.real - b.real) > 1e-12 or abs(a.imag + b.imag) > 1e-12:
                    ok = False
                    msgs.append("strict-complex structure violation")
                cases += 1

        # stationarity of the real Gaussian
        rg = specs["real_gaussian"]
        for _ in range(100):
            x = random_inputs(rng, 1, 2)[0]
            z = random_inputs(rng, 1, 2)[0]
            c = random_inputs(rng, 1, 2)[0]
            if abs(kernel_value(rg, x, z) - kernel_value(rg, x + c, z + c)) > 1e-14:
                ok = False
                msgs.append("stationarity violation")
            cases += 1

        # non-stationarity witness for the complex Gaussian
        cg = specs["complex_gaussian"]
        x = np.array([0.4 + 0.3j])
        z = np.array([-0.2 + 0.5j])
        shift = np.array([1.5j])
        if abs(kernel_value(cg, x, z) - kernel_value(cg, x + shift, z + shift)) < 1e-6:
            ok = False
            msgs.append("complex Gaussian unexpectedly stationary")
        cases += 1

        # PSD of composite matrices for the PSD-by-construction families
        for name in ("real_gaussian", "separate_real_imag", "sum_of_separable"):
            for _ in range(12):
                n = int(rng.integers(3, 31))
                x = random_inputs(rng, n, 2)
                lo = min_composite_eigenvalue(specs[name], x)
                if lo < -1e-10:
                    ok = False
                    msgs.append(f"PSD violation in {name}: {lo:.2e}")
                cases += 1

        elapsed = time.monotonic() - t0
        report(
            3,
            "kernel law suite",
            ok and cases >= 1000 and elapsed < 30.0,
            f"{cases} random cases, {elapsed:.1f}s (< 30 s)"
            + (f"; first failure: {msgs[0]}" if msgs else ""),
        )


class TestCriterion4Experiment1:
    def test_experiment1_bands(self):
        t0 = time.monotonic()
        levels, gaps = [], []
        for seed in range(10):
            res = run_exp1(experiment1(seed=seed))
            levels.append(res.wrkhs_mse_db)
            gaps.append(res.ablation_mse_db - res.wrkhs_mse_db)
        elapsed = time.monotonic() - t0
        ok = max(levels) <= -48.0 and min(gaps) >= 8.0 and elapsed < 120.0
        report(
            4,
            "experiment 1",
            ok,
            f"wrkhs mse in [{min(levels):.1f}, {max(levels):.1f}] dB "
            f"(need <= -48), gap in [{min(gaps):.1f}, {max(gaps):.1f}] dB "
            f"(need >= 8), {elapsed:.0f}s (< 120 s)",
        )


class TestCriterion5Experiment2:
    def test_experiment2_bands(self):
        t0 = time.monotonic()
        levels, gaps = [], []
        for seed in range(10):
            res = run_exp2(experiment2(seed=seed))
            levels.append(res.wrkhs_mse_db)
            gaps.append(res.ablation_mse_db - res.wrkhs_mse_db)
        elapsed = time.monotonic() - t0
        ok = max(levels) <= -40.0 and min(gaps) >= 2.0 and elapsed < 120.0
        report(
            5,
            "experiment 2",
            ok,
            f"wrkhs mse in [{min(levels):.1f}, {max(levels):.1f}] dB "
            f"(need <= -40), gap in [{min(gaps):.1f}, {max(gaps):.1f}] dB "
            f"(need >= 2), {elapsed:.0f}s (< 120 s)",
        )


class TestCriterion6OnlineBatchOracle:
    def test_unbounded_recursion_matches_batch(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(600)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(50, 201))
            d = int(rng.integers(1, 4))
            x = random_inputs(rng, n, d)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = RealGaussian(gamma=2.0) if trial % 2 == 0 else IndependentGaussian(
                gamma=1.5
            )
            lam = float(rng.uniform(0.2, 0.8))
            model = Wrkls(spec, lam)
            for i in range(n):
                model.observe(x[i], y[i])
            batch = fit_srkhs(ComplexDataset(X=x, y=y), spec, lam)
            worst = max(worst, float(np.max(np.abs(model.coefficients - batch.alpha))))
        elapsed = time.monotonic() - t0
        report(
            6,
            "online/batch oracle",
            worst <= 1e-6 and elapsed < 30.0,
            f"max |delta alpha| {worst:.2e} over 20 streams (tol 1e-6), "
            f"{elapsed:.1f}s (< 30 s)",
        )


@pytest.fixture(scope="session")
def circular_runs():
    """Shared circular-case equalization results (criteria 7 and 8)."""
    channel = ChannelConfig(rho=RHO_CIRCULAR, trials=20, base_seed=0)
    kernel = RealGaussian(gamma=8.92)
    t0 = time.monotonic()
    budgeted = run_equalization(
        EqualizationConfig(channel=channel, kernel=kernel, lam=0.32, budget=500)
    )
    unbounded = run_equalization(
        EqualizationConfig(channel=channel, kernel=kernel, lam=0.32, budget=None)
    )
    elapsed = time.monotonic() - t0
    return budgeted, unbounded, elapsed


class TestCriterion7BudgetClaim:
    def test_budgeted_close_to_unbounded(self, circular_runs):
        budgeted, unbounded, elapsed = circular_runs
        gap = abs(budgeted.final_mse_db - unbounded.final_mse_db)
        ok = gap <= 1.0 and elapsed < 900.0
        report(
            7,
            "budget claim (circular, 20 trials)",
            ok,
            f"final averaged MSE: M=500 {budgeted.final_mse_db:.2f} dB vs "
            f"unbounded {unbounded.final_mse_db:.2f} dB, |gap| {gap:.3f} dB "
            f"(<= 1), {elapsed:.0f}s (< 900 s)",
        )


class TestCriterion8NoncircularRun:
    def test_noncircular_completes_and_tracks_circular(self, circular_runs):
        budgeted_circ, _, _ = circular_runs
        t0 = time.monotonic()
        res = run_equalization(
            EqualizationConfig(
                channel=ChannelConfig(rho=0.1, trials=10, base_seed=0),
                kernel=RealGaussian(gamma=10.4),
                lam=0.18,
                budget=500,
            )
        )
        elapsed = time.monotonic() - t0
        finite = bool(np.all(np.isfinite(res.curve_db)))
        decreasing = res.curve_db[-1] <= res.curve_db[499]
        within = abs(res.final_mse_db - budgeted_circ.final_mse_db) <= 3.0
        ok = finite and decreasing and within and elapsed < 900.0
        report(
            8,
            "noncircular run",
            ok,
            f"final {res.final_mse_db:.2f} dB (circular {budgeted_circ.final_mse_db:.2f}), "
            f"finite={finite}, decreasing={decreasing}, within 3 dB={within}, "
            f"{elapsed:.0f}s (< 900 s)",
        )


class TestCriterion9SourceCircularity:
    def test_pseudo_variance(self):
        rng, _ = trial_rngs(900, 0)
        s = generate_source(100_000, RHO_CIRCULAR, rng)
        pv_circ = abs(np.mean(s**2))

        rng, _ = trial_rngs(901, 0)
        rho = 0.1
        s2 = generate_source(100_000, rho, rng)
        pv = np.mean(s2**2)
        target = 0.49 * (1 - 2 * rho**2)
        se = float(np.std(s2**2) / np.sqrt(s2.size))
        dev = abs(pv - target)
        ok = pv_circ < 0.02 and dev <= 3 * se
        report(
            9,
            "source circularity",
            ok,
            f"|E[s^2]| at rho=1/sqrt2: {pv_circ:.4f} (< 0.02); rho=0.1 deviation "
            f"{dev:.5f} vs 3 SE {3 * se:.5f}",
        )


class TestCriterion10KernelSurfaces:
    def test_surface_anchors(self, tmp_path):
        t0 = time.monotonic()
        ok = True
        details = []

        # complex Gaussian diagonal: k(x, x) = exp(4 xj^2 / gamma) exactly
        out = tmp_path / "diag.csv"
        rc = cli_main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "complex_gaussian", "params": {"gamma": 80.0}}',
                "--range",
                "15",
                "--resolution",
                "41",
                "--diagonal",
                "--out",
                str(out),
            ]
        )
        import csv as _csv

        def load(path):
            with open(path, newline="") as fh:
                rows = [r for r in _csv.reader(fh) if r and not r[0].startswith("#")]
            hdr = rows[0]
            return {
                h: np.array([float(r[i]) for r in rows[1:]])
                for i, h in enumerate(hdr)
            }

        cols = load(out)
        expected = np.exp(4.0 * cols["x_im"] ** 2 / 80.0)
        diag_err = float(np.max(np.abs(cols["k_re"] / expected - 1.0)))
        if rc != 0 or diag_err > 1e-12 or np.any(cols["k_im"] != 0.0):
            ok = False
        details.append(f"k_C diagonal rel err {diag_err:.1e}")

        # real Gaussian: center 1, radially symmetric
        out = tmp_path / "kg.csv"
        rc = cli_main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "real_gaussian", "params": {"gamma": 0.8}}',
                "--range",
                "5",
                "--resolution",
                "41",
                "--out",
                str(out),
            ]
        )
        cols = load(out)
        xs = cols["x_re"] + 1j * cols["x_im"]
        k = cols["k_re"]
        center_ok = k[np.argmin(np.abs(xs))] == 1.0
        radial = {}
        sym_err = 0.0
        for x, v in zip(xs, k):
            key = round(abs(x) ** 2, 10)
            if key in radial:
                sym_err = max(sym_err, abs(v - radial[key]))
            else:
                radial[key] = v
        if rc != 0 or not center_ok or sym_err > 1e-12:
            ok = False
        details.append(f"k_G center=1 {center_ok}, radial asym {sym_err:.1e}")

        # independent kernel cross shape
        out = tmp_path / "ki.csv"
        rc = cli_main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "independent", "params": {"gamma": 0.8}}',
                "--range",
                "15",
                "--resolution",
                "31",
                "--out",
                str(out),
            ]
        )
        cols = load(out)
        xs = cols["x_re"] + 1j * cols["x_im"]
        kc = cols["k_re"] + 1j * cols["k_im"]
        cross_err = 0.0
        for x, v in zip(xs, kc):
            if x == 0:
                cross_err = max(cross_err, abs(v - 2.0))
            elif x.imag == 0 and abs(x.real) >= 6:
                cross_err = max(cross_err, abs(v.real - 1.0))
            elif x.real == 0 and abs(x.imag) >= 6:
                cross_err = max(cross_err, abs(v.real - 1.0))
            elif abs(x.real) >= 6 and abs(x.imag) >= 6:
                cross_err = max(cross_err, abs(v))
        if rc != 0 or cross_err > 1e-12:
            ok = False
        details.append(f"k_ind cross err {cross_err:.1e}")

        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 5.0
        report(10, "kernel-surface anchors", ok, "; ".join(details) + f", {elapsed:.1f}s (< 5 s)")
