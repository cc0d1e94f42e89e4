"""Tests for the in-place update paths of the budgeted online recursion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrkhs import (
    ComplexDataset,
    ComplexGaussian,
    IndependentGaussian,
    RealGaussian,
    Wrkls,
    fit_srkhs,
    predict,
    streaming_ridge_predictions,
)
from wrkhs import core, kernels, online
from wrkhs.online import BLOCK_ROWS, RESIDUAL_CHECK_INTERVAL, RESIDUAL_TOL
from conftest import online_model, random_inputs

# One real-valued kernel (real BLAS update) and two complex-valued ones
# (complex BLAS update).
SPECS = {
    "real_gaussian": RealGaussian(gamma=1.5),
    "independent": IndependentGaussian(gamma=1.5),
    "complex_gaussian": ComplexGaussian(gamma=60.0),
}


def random_stream(rng, n, d=2):
    x = random_inputs(rng, n, d)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, y


def state(model):
    return model.dictionary, model.coefficients, model._Q.copy()


def count_updates(model):
    """Wrap the model's rank-1 and rank-2 BLAS updates of ``Q``; returns a list
    of ``(rank, buffer)`` per call."""
    calls = []
    for rank, name in ((1, "_her"), (2, "_her2")):
        update = getattr(model, name)

        def counted(*args, rank=rank, update=update, **kwargs):
            calls.append((rank, kwargs["a"]))
            return update(*args, **kwargs)

        setattr(model, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=30, deadline=None)
@example(seed=0, budget=1, n=12, lam=0.3)
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(1, 7),
    n=st.integers(1, 24),
    lam=st.floats(0.05, 1.0),
)
def test_budgeted_state_equals_refit_after_every_observe(name, seed, budget, n, lam):
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    x, y = random_stream(rng, n)
    model = Wrkls(spec, lam, budget=budget)
    assert model._dtype == (np.float64 if name == "real_gaussian" else np.complex128)
    for i in range(n):
        if model.size == budget:
            # oracle scores of the budget + 1 candidates, newcomer last
            cand = np.vstack([model.dictionary, x[i][None, :]])
            a = spec.gram(cand) + lam * np.eye(budget + 1)
            inv = np.linalg.inv(a)
            scores = np.abs(inv @ np.append(model.targets, y[i])) ** 2 / np.real(
                np.diagonal(inv)
            )
        model.observe(x[i], y[i])
        assert model.size == min(i + 1, budget)
        if i >= budget:
            kept = model.dictionary
            evicted = [
                j for j in range(budget + 1) if not (kept == cand[j]).all(axis=1).any()
            ]
            low, second = np.sort(scores)[:2]
            if second - low > 1e-8 * second:  # no near-tie
                assert evicted == [int(np.argmin(scores))]
        ref = fit_srkhs(ComplexDataset(X=model.dictionary, y=model.targets), spec, lam)
        np.testing.assert_allclose(model.coefficients, ref.alpha, rtol=0, atol=1e-10)
        assert model.inverse_residual() <= 1e-9
        # the kept Gram follows the dictionary through admits and evictions
        m = model.size
        kept = model._A[:m, :m]
        np.testing.assert_array_equal(kept, kept.conj().T)
        np.testing.assert_allclose(
            kept - lam * np.eye(m), spec.gram(model.dictionary), rtol=1e-12, atol=1e-12
        )


class TestSkipPath:
    def test_evicted_newcomer_leaves_state_untouched(self):
        model = Wrkls(RealGaussian(gamma=1.0), 0.3, budget=2)
        model.observe(np.array([0.0j]), 5.0)
        model.observe(np.array([1.0 + 0.0j]), -5.0)
        before = state(model)
        calls = count_updates(model)
        # far from both bases: predicted as 0, so a zero target scores 0
        pred = model.observe(np.array([10.0 + 10.0j]), 0.0)
        assert abs(pred) < 1e-60
        assert calls == []
        for old, new in zip(before, state(model)):
            np.testing.assert_array_equal(old, new)

    def test_evicting_another_basis_updates_in_place(self):
        model = Wrkls(RealGaussian(gamma=1.0), 0.3, budget=2)
        calls = count_updates(model)
        model.observe(np.array([0.0j]), 1.0)  # the smaller coefficient: evicted
        buffer = model._Q
        model.observe(np.array([1.0 + 0.0j]), -5.0)
        # one rank-1 call per fill admit
        assert [rank for rank, _ in calls] == [1, 1]
        assert all(a is buffer for _, a in calls)
        del calls[:]
        model.observe(np.array([10.0 + 10.0j]), 100.0)
        # the admit and the eviction are one rank-2 update of the same buffer
        assert [rank for rank, _ in calls] == [2]
        assert calls[0][1] is buffer
        assert model._Q is buffer and buffer.flags.f_contiguous
        # the newcomer took the evicted basis's slot
        np.testing.assert_array_equal(
            model.dictionary[:, 0], np.array([10.0 + 10.0j, 1.0 + 0.0j])
        )
        ref = fit_srkhs(
            ComplexDataset(X=model.dictionary, y=model.targets), RealGaussian(1.0), 0.3
        )
        np.testing.assert_allclose(model.coefficients, ref.alpha, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_strict_upper_triangle_of_q_is_never_read(name):
    # NaN in the upper triangle before every observe, across two residual checks
    spec = SPECS[name]
    x, y = random_stream(np.random.default_rng(31), 2 * RESIDUAL_CHECK_INTERVAL + 20)
    clean, dirty = Wrkls(spec, 0.3, budget=6), Wrkls(spec, 0.3, budget=6)

    def spoil():
        dirty._Q[np.triu_indices(dirty._Q.shape[0], 1)] = np.nan

    for i in range(len(y)):
        spoil()
        assert dirty.observe(x[i], y[i]) == clean.observe(x[i], y[i])
        np.testing.assert_array_equal(dirty.coefficients, clean.coefficients)
        np.testing.assert_array_equal(dirty.dictionary, clean.dictionary)
    assert dirty.stats["residual_last"] == clean.stats["residual_last"] > 0.0
    spoil()
    assert dirty.inverse_residual() == clean.inverse_residual()


def rebuild_records(caplog) -> list[str]:
    """The messages of the WARNING records on ``wrkhs.online`` captured so far."""
    return [r.getMessage() for r in caplog.records
            if r.name == "wrkhs.online" and r.levelname == "WARNING"]


def test_full_budget_singular_fallback(caplog):
    # the third input repeats the second: with a tiny lam the admit is singular
    spec, lam, budget = RealGaussian(1.0), 1e-14, 2
    model = Wrkls(spec, lam, budget=budget)
    for i, (xi, yi) in enumerate(zip([0.0, 1.0, 1.0, 0.0, 2.0], [1.0, -2.0, 0.5, 3.0, -1.0])):
        x = np.array([complex(xi)])
        if model.size == budget:
            cand = np.vstack([model.dictionary, x[None, :]])
            inv = np.linalg.inv(spec.gram(cand) + lam * np.eye(budget + 1))
            scores = np.abs(inv @ np.append(model.targets, yi)) ** 2 / np.real(
                np.diagonal(inv)
            )
        caplog.clear()
        with caplog.at_level("WARNING", logger="wrkhs.online"):
            model.observe(x, yi)
        # the singular admit at the budget rebuilds twice for one event: one record
        expected = ["singular rank-1 update at dictionary size 2; rebuilding"] if i == 2 else []
        assert rebuild_records(caplog) == expected
        assert model.size == min(i + 1, budget)
        m = model.size
        kept = model._A[:m, :m]
        np.testing.assert_array_equal(kept, kept.conj().T)
        np.testing.assert_allclose(
            kept, spec.gram(model.dictionary) + lam * np.eye(m), rtol=1e-12, atol=1e-12
        )
        assert model.stats["rebuilds"]["singular"] == (1 if i >= 2 else 0)
        if i >= budget:
            # the candidates whose removal leaves the kept dictionary, as a multiset
            left = sorted(model.dictionary[:, 0].real)
            evicted = [
                j for j in range(budget + 1) if sorted(np.delete(cand[:, 0].real, j)) == left
            ]
            low, second = np.sort(scores)[:2]
            if second - low > 1e-8 * second:  # no near-tie
                assert int(np.argmin(scores)) in evicted
        if m == budget:
            assert not model._Q[budget].any() and not model._Q[:, budget].any()


def test_full_budget_singular_fallback_through_observe_many(caplog):
    # the stream above in one block: the same rebuild, evictions and state
    spec, lam, budget = RealGaussian(1.0), 1e-14, 2
    x = np.array([0.0, 1.0, 1.0, 0.0, 2.0], dtype=complex)
    y = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    loop, many = Wrkls(spec, lam, budget=budget), Wrkls(spec, lam, budget=budget)
    preds = [loop.observe(x[i], y[i]) for i in range(5)]
    caplog.clear()
    with caplog.at_level("WARNING", logger="wrkhs.online"):
        np.testing.assert_array_equal(many.observe_many(x, y), preds)
    assert rebuild_records(caplog) == ["singular rank-1 update at dictionary size 2; rebuilding"]
    assert many.stats == loop.stats
    assert many.stats["rebuilds"]["singular"] == 1
    for old, new in zip(state(loop), state(many)):
        np.testing.assert_array_equal(old, new)


def test_full_budget_singular_fallback_drops_the_newcomer(caplog):
    # the fourth input repeats a kept basis with a tiny target: the singular
    # admit at the budget rebuilds, scores the newcomer lowest and drops it
    spec, lam = RealGaussian(1.0), 1e-14
    model = Wrkls(spec, lam, budget=2)
    for xi, yi in zip([0.0, 0.0, 1.0], [0.5, -0.3, 0.8]):
        model.observe(np.array([xi]), yi)
    kept, targets = model.dictionary, model.targets
    singular, skipped = model.stats["rebuilds"]["singular"], model.stats["skipped"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="wrkhs.online"):
        model.observe(np.array([0.0]), 1e-9)
    assert rebuild_records(caplog) == ["singular rank-1 update at dictionary size 2; rebuilding"]
    assert model.stats["rebuilds"]["singular"] == singular + 1
    assert model.stats["skipped"] == skipped + 1
    np.testing.assert_array_equal(model.dictionary, kept)
    np.testing.assert_array_equal(model.targets, targets)
    refit = fit_srkhs(ComplexDataset(X=kept, y=targets), spec, lam)
    np.testing.assert_allclose(model.coefficients, refit.alpha, rtol=1e-10)


def test_residual_above_tolerance_forces_a_rebuild(caplog):
    x, y = random_stream(np.random.default_rng(5), RESIDUAL_CHECK_INTERVAL)
    model = Wrkls(RealGaussian(1.0), 0.3, budget=8)
    for i in range(RESIDUAL_CHECK_INTERVAL - 1):
        model.observe(x[i], y[i])
    model._Q[:8, :8] *= 1 + 1e-4  # a drifted inverse
    with caplog.at_level("WARNING", logger="wrkhs.online"):
        model.observe(x[-1], y[-1])
    assert model.stats["rebuilds"]["residual"] == 1
    assert model.stats["residual_last"] > RESIDUAL_TOL
    assert rebuild_records(caplog) == [
        f"inverse of the 8-sample dictionary drifted (probe residual "
        f"{model.stats['residual_last']:.3g}); rebuilding"
    ]
    refit = fit_srkhs(ComplexDataset(X=model.dictionary, y=model.targets), model.spec, model.lam)
    np.testing.assert_allclose(model.coefficients, refit.alpha, rtol=0, atol=1e-10)
    assert model.inverse_residual() <= 1e-9


class TestStats:
    def test_counts_add_up_across_residual_checks(self):
        x, y = random_stream(np.random.default_rng(32), RESIDUAL_CHECK_INTERVAL + 40)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=8)
        for i in range(len(y)):
            model.observe(x[i], y[i])
        stats = model.stats
        assert stats["admits"] + stats["skipped"] == len(y)
        assert stats["admits"] - stats["replacements"] == 8
        assert stats["skipped"] > 0
        assert stats["rebuilds"] == {"singular": 0, "residual": 0}
        assert 0.0 < stats["residual_last"] == stats["residual_max"] <= 1e-9

    @pytest.mark.parametrize("budget,n", [(1, 600), (20, 600), (None, 200)])
    def test_counts_add_up_on_a_degenerate_stream(self, budget, n, caplog):
        # five distinct inputs at a ridge weight of 1e-17: singular rebuilds below
        # and at the budget, singular skips and residual rebuilds
        rng = np.random.default_rng(0)
        x = rng.choice(5, 600).astype(float)
        y = rng.standard_normal(600)
        model = Wrkls(RealGaussian(1.0), 1e-17, budget=budget)
        with caplog.at_level("WARNING", logger="wrkhs.online"):
            model.observe_many(x[:n, None], y[:n])
        stats = model.stats
        assert stats["admits"] + stats["skipped"] == n
        assert stats["admits"] - stats["replacements"] == model.size <= (budget or n)
        singular = [m for m in rebuild_records(caplog) if m.startswith("singular rank-1 update")]
        assert stats["rebuilds"]["singular"] == len(singular) > 0
        assert (stats["skipped"] > 0) == (budget is not None)


class TestProbeCheck:
    """The periodic self-check is a probe ``max |Q (A V) - V|`` with a fixed-seed +-1 block V."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_one_entry_drift_of_q_forces_a_rebuild(self, name, caplog):
        # the drift E of one lower entry and its mirror shows as E (A V): any
        # entry, in any kernel, is seen far above the tolerance
        spec = SPECS[name]
        x, y = random_stream(np.random.default_rng(36), RESIDUAL_CHECK_INTERVAL)
        for i, j in zip(*np.tril_indices(8, -1)):
            model = Wrkls(spec, 0.3, budget=8)
            model.observe_many(x[:-1], y[:-1])
            model._Q[i, j] += 1e-4
            caplog.clear()
            with caplog.at_level("WARNING", logger="wrkhs.online"):
                model.observe(x[-1], y[-1])
            assert model.stats["rebuilds"]["residual"] == 1, (i, j)
            assert model.stats["residual_last"] > RESIDUAL_TOL
            assert len(rebuild_records(caplog)) == 1, (i, j)
            refit = fit_srkhs(ComplexDataset(X=model.dictionary, y=model.targets), spec, 0.3)
            np.testing.assert_allclose(model.coefficients, refit.alpha, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("budget", [8, None])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_probe_residual_is_at_most_m_times_the_exact_one(self, name, budget):
        # |(R V)_ij| <= m max |R| for R = Q A - I and entries of V in {-1, 1}
        x, y = random_stream(np.random.default_rng(37), 2 * RESIDUAL_CHECK_INTERVAL)
        model = Wrkls(SPECS[name], 0.3, budget=budget)
        for block in range(2):
            part = slice(block * RESIDUAL_CHECK_INTERVAL, (block + 1) * RESIDUAL_CHECK_INTERVAL)
            model.observe_many(x[part], y[part])
            assert 0.0 < model.stats["residual_last"] <= model.size * model.inverse_residual()
        assert model.stats["rebuilds"]["residual"] == 0

    def test_the_check_takes_neither_the_mirror_nor_the_full_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the periodic check took the m x m path")

        monkeypatch.setattr(online, "mirror_lower", refuse)
        monkeypatch.setattr(Wrkls, "inverse_residual", refuse)
        x, y = random_stream(np.random.default_rng(38), 2 * RESIDUAL_CHECK_INTERVAL + 5)
        for budget in (8, None):
            model = Wrkls(ComplexGaussian(gamma=60.0), 0.3, budget=budget)
            model.observe_many(x[:-5], y[:-5])
            for i in range(len(y) - 5, len(y)):
                model.observe(x[i], y[i])
            assert model.stats["residual_last"] > 0.0

    def test_a_drift_an_all_ones_probe_cannot_see_forces_a_residual(self):
        # E = d [[-w_q/w_p, 1], [1, -w_p/w_q]] on slots p, q, with w = A 1, has
        # E w = 0: an all-ones probe reads rounding, the +-1 block reads E (A V)
        x, y = random_stream(np.random.default_rng(40), 20)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=8)
        model.observe_many(x, y)
        m, (p, q), delta = model.size, (2, 5), 1e-3
        assert m == 8
        w = model._A[:m, :m] @ np.ones(m)
        model._Q[p, p] -= delta * w[q] / w[p]
        model._Q[q, p] += delta
        model._Q[q, q] -= delta * w[p] / w[q]
        ones = np.max(np.abs(core.mirror_lower(model._Q[:m, :m].copy()) @ w - 1.0))
        assert ones < 1e-13
        assert model._probe_residual() > RESIDUAL_TOL

    def test_the_probe_block_of_a_grown_model_extends_the_smaller_one(self, monkeypatch):
        # each check draws its block afresh, one row per basis
        blocks, draw = [], online._probe_block
        monkeypatch.setattr(online, "_probe_block", lambda m: blocks.append(draw(m)) or blocks[-1])
        x, y = random_stream(np.random.default_rng(39), 2 * RESIDUAL_CHECK_INTERVAL)
        model = Wrkls(RealGaussian(1.0), 0.3)
        model.observe_many(x, y)
        small, large = blocks
        assert len(small) == RESIDUAL_CHECK_INTERVAL and len(large) == model.size == len(y)
        np.testing.assert_array_equal(large[: len(small)], small)
        assert set(np.unique(large)) == {-1.0, 1.0}

    @pytest.mark.parametrize("entry", ["observe_many", "observe"])
    def test_the_check_counts_skipped_newcomers(self, entry):
        # at budget 20 most newcomers are skipped; each counts toward the next check
        x, y = random_stream(np.random.default_rng(41), 600)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=20)
        checks, probe = [], model._probe_residual
        model._probe_residual = lambda: checks.append(model.size) or probe()
        if entry == "observe_many":
            model.observe_many(x, y)
        else:
            for i in range(len(y)):
                model.observe(x[i], y[i])
        assert model.stats["skipped"] > model.stats["admits"]
        assert len(checks) == len(y) // RESIDUAL_CHECK_INTERVAL


class TestNonfiniteInput:
    @pytest.mark.parametrize(
        "x,y",
        [
            ([np.nan, 0.5j], 1.0),
            ([0.5, complex(0.0, np.inf)], 1.0),
            ([0.5, 0.5j], complex(np.nan, 0.0)),
            ([0.5, 0.5j], complex(0.0, -np.inf)),
        ],
    )
    def test_observe_rejects_and_keeps_state(self, x, y):
        rng = np.random.default_rng(20)
        xs, ys = random_stream(rng, 12)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=5)
        for i in range(8):
            model.observe(xs[i], ys[i])
        before = state(model)
        with pytest.raises(ValueError, match="non-finite"):
            model.observe(np.array(x), y)
        for old, new in zip(before, state(model)):
            np.testing.assert_array_equal(old, new)
        preds = [model.observe(xs[i], ys[i]) for i in range(8, 12)]
        assert np.all(np.isfinite(preds))
        assert np.all(np.isfinite(predict(online_model(model), xs)))

    def test_first_sample_rejected_leaves_model_empty(self):
        model = Wrkls(RealGaussian(1.0), 0.3)
        with pytest.raises(ValueError, match="non-finite"):
            model.observe(np.array([np.nan]), 1.0)
        assert model.size == 0
        model.observe(np.array([0.1j, 0.2]), 1.0)  # dimension not fixed by the reject
        assert model.size == 1

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_nonfinite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            Wrkls(RealGaussian(1.0), lam)
        with pytest.raises(ValueError, match="finite"):
            streaming_ridge_predictions(RealGaussian(1.0), np.ones((3, 1)), np.ones(3), lam)


class TestSampleShape:
    """``observe`` takes one sample: a 0-d, (d,) or (1, d) input."""

    @pytest.mark.parametrize("shape", [(2, 3), (6, 1), (3, 2), (1, 2, 3), (2, 1, 2), (0,), (1, 0)])
    def test_observe_rejects_a_block_and_keeps_state(self, shape):
        # a block of samples is not flattened into one sample, on an empty or a full model
        model = Wrkls(RealGaussian(1.0), 0.5, budget=4)
        with pytest.raises(ValueError, match="one sample"):
            model.observe(np.ones(shape), 1.0)
        assert model.size == 0
        xs, ys = random_stream(np.random.default_rng(21), 8, d=6)
        for i in range(6):
            model.observe(xs[i], ys[i])
        before, stats = state(model), repr(model.stats)
        with pytest.raises(ValueError, match="one sample"):
            model.observe(np.ones(shape), 1.0)
        for old, new in zip(before, state(model)):
            np.testing.assert_array_equal(old, new)
        assert repr(model.stats) == stats
        model.observe(xs[6], ys[6])

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_sample_in_each_accepted_shape_is_the_same(self, d):
        xs, ys = random_stream(np.random.default_rng(22), 12, d=d)
        forms = [lambda v: v, lambda v: v[None, :], list]
        if d == 1:
            forms.append(lambda v: v[0])  # a 0-d sample
        runs = []
        for form in forms:
            model = Wrkls(RealGaussian(1.0), 0.5, budget=4)
            preds = [model.observe(form(xs[i]), ys[i]) for i in range(12)]
            runs.append((preds, model.dictionary, model.coefficients))
        for preds, dictionary, coefficients in runs[1:]:
            assert preds == runs[0][0]
            np.testing.assert_array_equal(dictionary, runs[0][1])
            np.testing.assert_array_equal(coefficients, runs[0][2])


def counts(model):
    stats = model.stats
    return stats["admits"], stats["replacements"], stats["skipped"], stats["rebuilds"]


class TestObserveMany:
    """``observe_many`` runs the loop of ``observe`` a block of samples at a time."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @example(seed=0, budget=3, n=2 * RESIDUAL_CHECK_INTERVAL + 9, split=BLOCK_ROWS - 1, lam=0.3)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.one_of(st.none(), st.integers(1, 7)),
        n=st.integers(RESIDUAL_CHECK_INTERVAL + 1, 2 * RESIDUAL_CHECK_INTERVAL + 40),
        split=st.integers(0, 2 * RESIDUAL_CHECK_INTERVAL + 40),
        lam=st.floats(0.05, 1.0),
    )
    def test_matches_an_observe_loop(self, name, seed, budget, n, split, lam):
        spec = SPECS[name]
        x, y = random_stream(np.random.default_rng(seed), n)
        loop, many = Wrkls(spec, lam, budget=budget), Wrkls(spec, lam, budget=budget)
        expected = np.array([loop.observe(x[i], y[i]) for i in range(n)])
        # two calls, so a block also starts from a dictionary grown by the first
        split = min(split, n)
        parts = [many.observe_many(x[a:b], y[a:b]) for a, b in ((0, split), (split, n)) if b > a]
        got = np.concatenate(parts)
        tol = 1e-12
        if budget is None:
            # the whole stream is the dictionary: a last-bit difference of a kernel
            # value grows with the conditioning of K + lam I along the recursion
            a = spec.gram(x) + lam * np.eye(n)
            tol = max(tol, n * np.linalg.cond(a) * np.finfo(float).eps)
        assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))
        assert counts(many) == counts(loop)
        np.testing.assert_array_equal(many.dictionary, loop.dictionary)
        assert many.inverse_residual() <= 1e-9

    def test_one_kernel_evaluation_and_one_check_per_call(self, monkeypatch):
        x, y = random_stream(np.random.default_rng(33), 2 * BLOCK_ROWS + 12)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=20)
        model.observe_many(x[:7], y[:7])
        calls = {"sqdist": 0, "as_samples": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name.strip("_")] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(kernels, "_sqdist")
        counted(core, "as_samples")
        model.observe_many(x[7:], y[7:])
        assert calls == {"sqdist": 3, "as_samples": 1}  # 2 * BLOCK_ROWS + 5 rows: 3 blocks

    @pytest.mark.parametrize("fails", [False, True])
    def test_the_loop_runs_at_one_blas_thread(self, monkeypatch, fails):
        pools = core._openblas_pools()
        if not pools:
            pytest.skip("no OpenBLAS loaded")
        x, y = random_stream(np.random.default_rng(40), 20)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=5)
        step, inside = model._step, []

        def recorded(*args):
            inside.append([get() for get, _ in pools])
            if fails and len(inside) == 10:
                raise KeyError("left by an exception")
            return step(*args)

        monkeypatch.setattr(model, "_step", recorded)
        before = [get() for get, _ in pools]
        try:
            for _, put in pools:
                put(2)
            if fails:
                with pytest.raises(KeyError):
                    model.observe_many(x, y)
            else:
                model.observe_many(x, y)
            assert [get() for get, _ in pools] == [2] * len(pools)
        finally:
            for (_, put), count in zip(pools, before):
                put(count)
        assert inside == [[1] * len(pools)] * (10 if fails else 20)

    @pytest.mark.parametrize("row", [0, 9, 19])
    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_entry_rejected_and_state_kept(self, where, bad, row):
        xs, ys = random_stream(np.random.default_rng(34), 30)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=5)
        model.observe_many(xs[:10], ys[:10])
        x, y = xs[10:].copy(), ys[10:].copy()
        if where == "x":
            x[row, 1] = bad
        else:
            y[row] = bad
        self.assert_refused_and_kept(model, x, y, "non-finite")

    @pytest.mark.parametrize(
        "x,y,message",
        [
            (np.ones((4, 2)), np.ones(3), "rows but y has"),
            (np.ones((4, 2)), np.ones((4, 1)), "y must be 1-D"),
            (np.ones((4, 3)), np.ones(4), "expected dimension 2, got 3"),
            (np.ones(4), np.ones(4), "expected dimension 2, got 1"),
            (np.ones((1, 2, 2)), np.ones(1), "must be"),
            (np.ones((0, 2)), np.ones(0), "n >= 1"),
        ],
    )
    def test_malformed_stream_rejected_and_state_kept(self, x, y, message):
        xs, ys = random_stream(np.random.default_rng(35), 10)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=5)
        model.observe_many(xs, ys)
        self.assert_refused_and_kept(model, x, y, message)

    @staticmethod
    def assert_refused_and_kept(model, x, y, message):
        before = state(model) + (model._D.copy(), model._A.copy())
        stats = repr(model.stats)
        with pytest.raises(ValueError, match=message):
            model.observe_many(x, y)
        for old, new in zip(before, state(model) + (model._D, model._A)):
            np.testing.assert_array_equal(old, new)
        assert repr(model.stats) == stats
