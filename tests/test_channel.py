"""Tests for source generation, the nonlinear channel, and the benchmark loop."""

import contextlib
import multiprocessing
import os
import signal
import warnings

import numpy as np
import pytest

from wrkhs import (
    ChannelConfig,
    EqualizationConfig,
    KernelOverflowWarning,
    RealGaussian,
    Wrkls,
    add_awgn,
    apply_channel,
    build_equalizer_dataset,
    generate_source,
    run_equalization,
    trial_rngs,
)
from wrkhs import channel, core

RHO_CIRCULAR = 1.0 / np.sqrt(2.0)


def small_config(trials, budget=40):
    return EqualizationConfig(
        channel=ChannelConfig(rho=RHO_CIRCULAR, trials=trials, base_seed=11, n_samples=200),
        kernel=RealGaussian(gamma=8.92),
        lam=0.32,
        budget=budget,
    )


def use_cores(monkeypatch, n):
    """Make ``run_equalization`` see ``n`` usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def blas_counts():
    return [get() for get, _ in core._openblas_pools()]


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSource:
    def test_circular_pseudo_variance_vanishes(self):
        rng, _ = trial_rngs(0, 0)
        s = generate_source(100_000, RHO_CIRCULAR, rng)
        assert abs(np.mean(s**2)) < 0.02

    def test_noncircular_pseudo_variance(self):
        # E[s^2] = 0.49 (1 - 2 rho^2), real and positive for rho = 0.1
        rng, _ = trial_rngs(1, 0)
        rho = 0.1
        s = generate_source(100_000, rho, rng)
        pv = np.mean(s**2)
        target = 0.49 * (1 - 2 * rho**2)
        se = np.std(s**2) / np.sqrt(s.size)
        assert abs(pv - target) <= 3 * se
        assert pv.real > 0

    def test_part_variances(self):
        rng, _ = trial_rngs(2, 0)
        rho = 0.3
        s = generate_source(200_000, rho, rng)
        var_re = 0.49 * (1 - rho**2)
        var_im = 0.49 * rho**2
        assert np.var(s.real) == pytest.approx(var_re, rel=0.02)
        assert np.var(s.imag) == pytest.approx(var_im, rel=0.02)

    def test_rho_bounds(self):
        rng, _ = trial_rngs(0, 0)
        with pytest.raises(ValueError):
            generate_source(10, 0.0, rng)
        with pytest.raises(ValueError):
            generate_source(10, 1.0, rng)


class TestChannel:
    def test_two_tap_filter_value(self):
        # s = [1, j]: t(1) = h0 * j + h1 * 1 = -0.2 - 1.6j
        q_linear = apply_channel(np.array([1.0, 1j]), c2=0.0, c3=0.0)
        assert q_linear[0] == pytest.approx(-0.9 + 0.8j)
        assert q_linear[1] == pytest.approx(-0.2 - 1.6j)

    def test_zero_input_zero_output(self):
        np.testing.assert_array_equal(apply_channel(np.zeros(10)), np.zeros(10))

    def test_polynomial_collapse(self):
        rng, _ = trial_rngs(3, 0)
        s = generate_source(50, RHO_CIRCULAR, rng)
        t = apply_channel(s, c2=0.0, c3=0.0)
        h0, h1 = -0.9 + 0.8j, 0.6 - 0.7j
        expected = h0 * s
        expected[1:] += h1 * s[:-1]
        np.testing.assert_allclose(t, expected, atol=1e-15)

    def test_memoryless_after_filter(self):
        # permuting t commutes with the polynomial nonlinearity
        rng, _ = trial_rngs(4, 0)
        s = generate_source(40, RHO_CIRCULAR, rng)
        q = apply_channel(s)
        t = apply_channel(s, c2=0.0, c3=0.0)
        poly = t + (0.2 + 0.25j) * t**2 + (0.12 + 0.09j) * t**3
        np.testing.assert_allclose(q, poly, atol=1e-14)
        perm = np.random.default_rng(0).permutation(40)
        tp = t[perm]
        np.testing.assert_allclose(
            tp + (0.2 + 0.25j) * tp**2 + (0.12 + 0.09j) * tp**3, poly[perm], atol=1e-14
        )


class TestAwgn:
    def test_infinite_snr_limit(self):
        _, rng = trial_rngs(5, 0)
        q = np.array([1 + 1j, -2j, 0.5])
        r = add_awgn(q, 300.0, rng)
        np.testing.assert_allclose(r, q, atol=1e-12)

    def test_measured_snr(self):
        src, noi = trial_rngs(6, 0)
        s = generate_source(5000, RHO_CIRCULAR, src)
        q = apply_channel(s)
        r = add_awgn(q, 16.0, noi)
        measured = 10 * np.log10(
            np.mean(np.abs(q) ** 2) / np.mean(np.abs(r - q) ** 2)
        )
        assert measured == pytest.approx(16.0, abs=0.2)

    def test_noise_is_circular(self):
        _, rng = trial_rngs(7, 0)
        q = np.ones(100_000, dtype=complex)
        r = add_awgn(q, 0.0, rng)
        noise = r - q
        assert abs(np.mean(noise**2)) < 3 * np.std(noise**2) / np.sqrt(noise.size)

    def test_zero_power_rejected(self):
        _, rng = trial_rngs(8, 0)
        with pytest.raises(ValueError, match="zero power"):
            add_awgn(np.zeros(5), 16.0, rng)


class TestEqualizerDataset:
    def test_trivial_window(self):
        r = np.arange(6, dtype=complex)
        s = 10 * np.arange(6, dtype=complex)
        data = build_equalizer_dataset(r, s, filter_length=1, delay=0)
        assert data.n == 6
        np.testing.assert_array_equal(data.X[:, 0], r)
        np.testing.assert_array_equal(data.y, s)

    def test_paper_geometry_size(self):
        rng, _ = trial_rngs(9, 0)
        s = generate_source(5000, RHO_CIRCULAR, rng)
        data = build_equalizer_dataset(s, s, filter_length=5, delay=2)
        assert data.n == 5000 - (5 - 1)
        assert data.d == 5

    def test_windows_match_bruteforce(self):
        r = np.arange(8, dtype=complex) + 1j
        s = np.arange(8, dtype=complex)
        L, D = 3, 1
        data = build_equalizer_dataset(r, s, L, D)
        rows = []
        targets = []
        for n in range(8):
            idx = [n + D - k for k in range(L)]
            if min(idx) < 0 or max(idx) > 7:
                continue
            rows.append(r[idx])
            targets.append(s[n])
        np.testing.assert_array_equal(data.X, np.array(rows))
        np.testing.assert_array_equal(data.y, np.array(targets))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            build_equalizer_dataset(np.ones(3), np.ones(3), filter_length=5, delay=2)


class TestRunEqualization:
    def test_golden_curve(self):
        # pinned regression fixture: deterministic single-trial short run
        cfg = EqualizationConfig(
            channel=ChannelConfig(rho=RHO_CIRCULAR, trials=1, base_seed=7, n_samples=200),
            kernel=RealGaussian(gamma=8.92),
            lam=0.32,
            budget=None,
        )
        res = run_equalization(cfg)
        assert res.n_stream == 196
        expected = {
            0: -10.305842629958477,
            1: -11.486224552393224,
            9: -7.089216749205259,
            49: -5.310896588958084,
            99: -5.357350100710852,
            195: -6.336210512625899,
        }
        for idx, val in expected.items():
            assert res.curve_db[idx] == pytest.approx(val, abs=1e-9)
        assert res.final_mse_db == pytest.approx(-6.336210512625899, abs=1e-9)

    def test_cumulative_mean_decays(self):
        cfg = EqualizationConfig(
            channel=ChannelConfig(
                rho=RHO_CIRCULAR, trials=2, base_seed=1, n_samples=800
            ),
            kernel=RealGaussian(gamma=8.92),
            lam=0.32,
            budget=None,
        )
        res = run_equalization(cfg)
        assert np.all(np.isfinite(res.curve_db))
        assert res.curve_db[-1] <= res.curve_db[199]

    def test_budget_close_to_unbounded_small_scale(self):
        base = ChannelConfig(rho=RHO_CIRCULAR, trials=3, base_seed=2, n_samples=900)
        kernel = RealGaussian(gamma=8.92)
        r_unb = run_equalization(
            EqualizationConfig(channel=base, kernel=kernel, lam=0.32, budget=None)
        )
        r_bud = run_equalization(
            EqualizationConfig(channel=base, kernel=kernel, lam=0.32, budget=300)
        )
        assert abs(r_unb.final_mse_db - r_bud.final_mse_db) <= 1.0

    def test_budgeted_run_matches_an_observe_loop(self):
        # a budgeted run streams each trial in blocks; a per-sample observe
        # replay of the same trials gives the same curve to 1e-9 dB
        cfg = EqualizationConfig(
            channel=ChannelConfig(rho=RHO_CIRCULAR, trials=2, base_seed=5, n_samples=600),
            kernel=RealGaussian(gamma=8.92),
            lam=0.32,
            budget=50,
        )
        ch, curves = cfg.channel, []
        for trial in range(ch.trials):
            source_rng, noise_rng = trial_rngs(ch.base_seed, trial)
            s = generate_source(ch.n_samples, ch.rho, source_rng, ch.source_scale)
            r = add_awgn(apply_channel(s, ch.taps, ch.c2, ch.c3), ch.snr_db, noise_rng)
            data = build_equalizer_dataset(r, s, ch.filter_length, ch.delay)
            model = Wrkls(cfg.kernel, cfg.lam, budget=cfg.budget)
            preds = np.array([model.observe(data.X[i], data.y[i]) for i in range(data.n)])
            assert model.stats["replacements"] > 0
            curves.append(np.cumsum(np.abs(preds - data.y) ** 2) / np.arange(1, data.n + 1))
        replay_db = 10.0 * np.log10(np.mean(curves, axis=0))
        res = run_equalization(cfg)
        np.testing.assert_allclose(res.curve_db, replay_db, rtol=0, atol=1e-9)
        assert abs(res.final_mse_db - replay_db[-1]) <= 1e-9

    def test_average_of_single_trials(self):
        # trial i is keyed by base_seed + i alone, so a 3-trial run averages
        # three 1-trial runs
        def run(trials, base_seed):
            cfg = EqualizationConfig(
                channel=ChannelConfig(
                    rho=RHO_CIRCULAR, trials=trials, base_seed=base_seed, n_samples=300
                ),
                kernel=RealGaussian(gamma=8.92),
                lam=0.32,
                budget=40,
            )
            return 10.0 ** (run_equalization(cfg).curve_db / 10.0)

        singles = np.mean([run(1, 3 + i) for i in range(3)], axis=0)
        np.testing.assert_allclose(run(3, 3), singles, rtol=1e-12, atol=0)


class TestTrialProcesses:
    """Trials split over processes: one per core, at most one per trial."""

    @pytest.mark.parametrize("budget", [40, None])
    @pytest.mark.parametrize("trials", [2, 3, 5])
    def test_split_equals_the_serial_average(self, monkeypatch, trials, budget):
        use_cores(monkeypatch, 3)  # 2, 3 and 3 processes, so 1 BLAS thread each
        cfg = small_config(trials, budget)
        with core.limit_blas_threads(1):
            total = channel._run_trial(cfg, 0)
            for trial in range(1, trials):
                total += channel._run_trial(cfg, trial)
        res = run_equalization(cfg)
        np.testing.assert_array_equal(res.curve_db, 10.0 * np.log10(total / trials))
        assert res.final_mse_db == res.curve_db[-1]

    @pytest.mark.parametrize("case", ["one_trial", "one_core", "no_fork", "daemonic"])
    def test_trials_run_in_process_when_nothing_can_be_split(self, monkeypatch, case):
        use_cores(monkeypatch, 1 if case == "one_core" else 4)
        if case == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if case == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        parent = os.getpid()
        # 1 for a trial run in this process, else 2
        monkeypatch.setattr(channel, "_run_trial",
                            lambda config, t: np.array([1.0 + (os.getpid() != parent)]))
        res = run_equalization(small_config(1 if case == "one_trial" else 3))
        assert res.curve_db.tolist() == [0.0]

    def test_each_process_takes_its_share_of_the_blas_threads(self, monkeypatch):
        pools = core._openblas_pools()
        if not pools:
            pytest.skip("no OpenBLAS loaded")
        use_cores(monkeypatch, 4)
        before = blas_counts()
        try:
            for _, put in pools:
                put(4)
            for trials in (1, 2, 3, 4):
                share = 4 // min(4, trials)

                def trial(config, t, share=share):
                    # 1 in a process whose pools are within its share, else 2
                    return np.array([1.0 + (max(blas_counts()) > share)])

                monkeypatch.setattr(channel, "_run_trial", trial)
                assert run_equalization(small_config(trials)).curve_db.tolist() == [0.0]
                assert blas_counts() == [4] * len(pools)
        finally:
            for (_, put), count in zip(pools, before):
                put(count)
        assert blas_counts() == before

    def test_limit_blas_threads_restores_the_counts(self):
        before = blas_counts()
        with pytest.raises(KeyError), core.limit_blas_threads(1):
            assert blas_counts() == [1] * len(before)
            raise KeyError("left by an exception")
        assert blas_counts() == before

    def test_a_child_gone_without_its_curves_raises(self, monkeypatch):
        use_cores(monkeypatch, 2)
        parent = os.getpid()

        def trial(config, t):
            if os.getpid() != parent:
                os._exit(7)
            return np.ones(1)

        monkeypatch.setattr(channel, "_run_trial", trial)
        with deadline(60), pytest.raises(ChildProcessError, match="exited with code 7"):
            run_equalization(small_config(2))

    def test_a_childs_warning_reaches_the_callers_filters(self, monkeypatch):
        use_cores(monkeypatch, 3)
        parent = os.getpid()

        def trial(config, t):
            if os.getpid() != parent:
                warnings.warn(f"trial {t}", KernelOverflowWarning)
            return np.ones(1)

        monkeypatch.setattr(channel, "_run_trial", trial)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_equalization(small_config(3))
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (KernelOverflowWarning, f"trial {t}", __file__) for t in (1, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelOverflowWarning, match="trial 1"):
                run_equalization(small_config(3))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            ChannelConfig(rho=1.5)
        with pytest.raises(ValueError, match="n_samples"):
            ChannelConfig(rho=0.5, n_samples=7, filter_length=5, delay=2)

    def test_json_roundtrip(self):
        cfg = EqualizationConfig(
            channel=ChannelConfig(rho=0.1, trials=4, base_seed=9, n_samples=600),
            kernel=RealGaussian(gamma=10.4),
            lam=0.18,
            budget=500,
        )
        clone = EqualizationConfig.from_config(cfg.to_config())
        assert clone == cfg

    def test_trial_rngs_reproducible(self):
        a_src, a_noi = trial_rngs(5, 3)
        b_src, b_noi = trial_rngs(5, 3)
        np.testing.assert_array_equal(
            a_src.standard_normal(8), b_src.standard_normal(8)
        )
        np.testing.assert_array_equal(
            a_noi.standard_normal(8), b_noi.standard_normal(8)
        )
        c_src, _ = trial_rngs(5, 4)
        assert not np.allclose(
            trial_rngs(5, 3)[0].standard_normal(8), c_src.standard_normal(8)
        )


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: ChannelConfig(rho=0.5, filter_length=0), "^filter_length"),
        (lambda: ChannelConfig(rho=0.5, delay=-1), "^delay"),
        (lambda: ChannelConfig(rho=0.5, n_samples=7), "^n_samples"),  # filter_length + delay
        (lambda: apply_channel([1.0]), "^s must"),
        (lambda: add_awgn([1.0, 2.0], float("nan"), np.random.default_rng(0)), "^snr_db"),
        (lambda: build_equalizer_dataset([1.0, 2.0, 3.0], [1.0, 2.0], 2, 0), "^r and s"),
    ],
    ids=["filter_length", "delay", "n_samples", "short_stream", "snr_db", "unequal_streams"],
)
def test_every_input_check_names_its_field(call, field):
    with pytest.raises(ValueError, match=field):
        call()
