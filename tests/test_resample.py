import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gapboot._rand as rand_module
import gapboot.resample as resample_module
from gapboot import (
    BootstrapConfig,
    ConfigError,
    EstimatorSpec,
    EvaluationError,
    InsufficientDataError,
    apply_estimator_batch,
    bootstrap_replicates,
    build_data_array,
    collect_row_estimates,
    componentwise_mean_estimator,
    iid_bootstrap_variance,
    mean_estimator,
    median_estimator,
)
from gapboot._rand import derived_stream

EXHAUSTIVE = BootstrapConfig(mode="exhaustive")


def resample_indices(m, replicates, seed, key=()):
    """The (replicates, m) table of with-replacement indices that one draw
    from the ``(seed, *key)`` stream gives: the whole-table form of the
    stream ``bootstrap_replicates`` draws chunk by chunk."""
    rng = derived_stream(seed, *key)
    return rng.integers(0, m, size=(replicates, m), dtype=np.int64)


def test_constant_row_gives_zero():
    v = iid_bootstrap_variance([5.0, 5.0, 5.0, 5.0], mean_estimator(), EXHAUSTIVE)
    assert v.scalar == 0.0
    v_mc = iid_bootstrap_variance([5.0] * 4, mean_estimator(), BootstrapConfig(replicates=50))
    assert v_mc.scalar == 0.0


def test_exhaustive_two_point_row():
    # Resample means 0, 1, 1, 2 -> exact variance 0.5.
    v = iid_bootstrap_variance([0.0, 2.0], mean_estimator(), EXHAUSTIVE)
    assert v.scalar == 0.5


def test_exhaustive_three_point_row():
    v = iid_bootstrap_variance([1.0, 2.0, 3.0], mean_estimator(), EXHAUSTIVE)
    assert v.scalar == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_exhaustive_equals_plugin_over_m():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    v = iid_bootstrap_variance(x, mean_estimator(), EXHAUSTIVE)
    assert_allclose(v.scalar, x.var() / 6.0, rtol=1e-12)


def test_exhaustive_replicates_enumerate_all():
    reps = bootstrap_replicates([1.0, 2.0], mean_estimator(), EXHAUSTIVE)
    assert_array_equal(reps.ravel(), [1.0, 1.5, 1.5, 2.0])


def test_location_invariance_bit_exact():
    # Power-of-two sample size keeps the resample means dyadic.
    x = np.array([3.0, 17.0, 41.0, 8.0])
    a = iid_bootstrap_variance(x, mean_estimator(), EXHAUSTIVE).scalar
    b = iid_bootstrap_variance(x + 16.0, mean_estimator(), EXHAUSTIVE).scalar
    assert a == b


def test_location_invariance_monte_carlo():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(12)
    cfg = BootstrapConfig(replicates=500, seed=4)
    a = iid_bootstrap_variance(x, mean_estimator(), cfg).scalar
    b = iid_bootstrap_variance(x + 3.7, mean_estimator(), cfg).scalar
    assert_allclose(a, b, rtol=1e-10)


def test_scale_equivariance():
    x = np.array([3.0, 17.0, 41.0, 8.0, 2.0])
    a = iid_bootstrap_variance(x, mean_estimator(), EXHAUSTIVE).scalar
    c = iid_bootstrap_variance(4.0 * x, mean_estimator(), EXHAUSTIVE).scalar
    assert c == pytest.approx(16.0 * a, rel=1e-14)


def test_monte_carlo_matches_exhaustive():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    exact = iid_bootstrap_variance(x, mean_estimator(), EXHAUSTIVE).scalar
    mc = iid_bootstrap_variance(x, mean_estimator(), BootstrapConfig(replicates=40_000, seed=1))
    assert_allclose(mc.scalar, exact, rtol=0.05)


def test_determinism_and_key_separation():
    x = np.arange(8.0)
    cfg = BootstrapConfig(replicates=200, seed=11)
    a = iid_bootstrap_variance(x, mean_estimator(), cfg, key=("row", 1)).scalar
    b = iid_bootstrap_variance(x, mean_estimator(), cfg, key=("row", 1)).scalar
    c = iid_bootstrap_variance(x, mean_estimator(), cfg, key=("row", 2)).scalar
    assert a == b
    assert a != c


def test_resample_indices_prefix_stability():
    # Replicate b is row b of one batched draw: a longer table extends,
    # never reshuffles, a shorter one.
    short = resample_indices(6, 100, seed=3, key=("row", 4))
    long = resample_indices(6, 250, seed=3, key=("row", 4))
    assert_array_equal(long[:100], short)


def test_vector_samples():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 2))
    v = iid_bootstrap_variance(x, componentwise_mean_estimator(2), EXHAUSTIVE)
    assert v.matrix.shape == (2, 2)
    assert np.linalg.eigvalsh(v.matrix)[0] >= 0.0
    # Componentwise the exhaustive value is plug-in variance / m.
    assert_allclose(np.diag(v.matrix), x.var(axis=0) / 6.0, rtol=1e-12)


def test_exhaustive_guard():
    with pytest.raises(ConfigError, match="exhaustive"):
        iid_bootstrap_variance(np.arange(8.0), mean_estimator(), EXHAUSTIVE)


@pytest.mark.parametrize("entry", ["row", "array"])
def test_exhaustive_guard_on_a_long_row(entry):
    # m**m at m = 2,000 has 6,602 digits, more than Python will print;
    # the refusal names m and the limit without forming it
    values = np.random.default_rng(1).standard_normal(6000)
    with pytest.raises(ConfigError, match=r"MAX_EXHAUSTIVE = 1000000 at m = 2000$"):
        if entry == "row":
            iid_bootstrap_variance(values[:2000], mean_estimator(), EXHAUSTIVE)
        else:
            collect_row_estimates(build_data_array(values, p=3), mean_estimator(), EXHAUSTIVE)


@pytest.mark.parametrize("m, n", [(1, 3), (6, 1), (101, 250)])
def test_unit_draw_is_the_row_draw(m, n):
    # at ell = 1 the shared draw is the plain with-replacement call, so the
    # row and OD slot streams give the same indices as a direct draw
    got = resample_module._draw(derived_stream(4, "slot", 2), n, m)
    assert_array_equal(got, derived_stream(4, "slot", 2).integers(0, m, size=(n, m), dtype=np.int64))
    assert got.flags.c_contiguous and got.base is None


def test_too_few_observations():
    with pytest.raises(InsufficientDataError):
        iid_bootstrap_variance([1.0], mean_estimator(), EXHAUSTIVE)


def test_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(replicates=1)
    with pytest.raises(ConfigError):
        BootstrapConfig(mode="jackknife")


def _exhaustive_table(m):
    """All m**m resamples as one lexicographic table (the whole-table form)."""
    return np.stack(np.unravel_index(np.arange(m**m), (m,) * m), axis=1)


@pytest.mark.parametrize("m, d, rows", [(7, 1, 3), (7, 2, 1), (101, 1, 5), (101, 3, 41)])
@pytest.mark.parametrize(
    "estimator",
    [lambda d: mean_estimator(), lambda d: median_estimator(), componentwise_mean_estimator],
    ids=["mean", "median", "componentwise"],
)
def test_chunked_replicates_match_whole_table(monkeypatch, m, d, rows, estimator):
    # Chunks of `rows` resamples split B = 250 at odd counts; every
    # replicate must still resample its own row of the one-draw table.
    sample = np.random.default_rng(m + d).standard_normal((m, d))
    monkeypatch.setattr(resample_module, "_CHUNK_BYTES", rows * sample.nbytes + 7)
    est = estimator(d)
    cfg = BootstrapConfig(replicates=250, seed=6)
    reps = bootstrap_replicates(sample, est, cfg, key=("row", 2))
    idx = resample_indices(m, 250, seed=6, key=("row", 2))
    assert_array_equal(reps, apply_estimator_batch(est, sample[idx]))


@pytest.mark.parametrize("m, rows", [(5, 7), (7, 4099)])
def test_chunked_exhaustive_matches_whole_table(monkeypatch, m, rows):
    sample = np.random.default_rng(m).standard_normal((m, 1))
    monkeypatch.setattr(resample_module, "_CHUNK_BYTES", rows * sample.nbytes)
    est = median_estimator()
    reps = bootstrap_replicates(sample, est, BootstrapConfig(mode="exhaustive"))
    assert_array_equal(reps, apply_estimator_batch(est, sample[_exhaustive_table(m)]))


def test_memory_does_not_grow_with_replicates(traced_peak):
    # A whole (B, m) table at m = 20,000 and B = 2,000 would take 305 MiB
    # of indices alone; chunking keeps the peak near two 4 MiB chunks.
    row = np.random.default_rng(3).standard_normal(20_000)
    peaks = [
        traced_peak(lambda: iid_bootstrap_variance(
            row, mean_estimator(), BootstrapConfig(replicates=B, seed=1), key=("row", 1)))
        for B in (200, 2000)
    ]
    assert abs(peaks[1] - peaks[0]) <= resample_module._CHUNK_BYTES
    assert max(peaks) < 16 << 20


def recording_sizes(sizes: list) -> EstimatorSpec:
    """The mean estimator, with the size of each stack it is given put in
    ``sizes``."""

    def evaluate(stack):
        sizes.append(stack.shape[0])
        return stack.reshape(stack.shape[0], -1).mean(axis=1)

    return EstimatorSpec("mean", 1, evaluate)


@pytest.mark.parametrize(
    "workers, replicates, pooled",
    [(2, 100, True), (2, 99, False), (1, 100, False)],
    ids=["long-row", "short-row", "one-cpu"],
)
def test_chunk_budget_follows_the_row(monkeypatch, workers, replicates, pooled):
    # Rows of m = 40 units against a gate of 4,000 indices: at B = 100 a
    # row is long enough for the row pool on 2 CPUs and takes half of the
    # pool budget, 10 resamples, per chunk, bootstrapped on its own or on
    # the pool.  At B = 99, or on one CPU, it takes a whole _CHUNK_BYTES
    # chunk, which holds every resample.
    m, p = 40, 3
    values = np.random.default_rng(8).standard_normal(m * p)
    monkeypatch.setattr(rand_module, "_WORKERS", workers)
    monkeypatch.setattr(resample_module, "_MIN_THREAD_DRAWS", 4000)
    monkeypatch.setattr(resample_module, "_POOL_CHUNK_BYTES", 2 * 10 * m * 8)
    chunk = 10 if pooled else replicates
    expected = [chunk] * (replicates // chunk)
    config = BootstrapConfig(replicates=replicates, seed=5)
    sizes = []
    iid_bootstrap_variance(values[:m], recording_sizes(sizes), config)
    assert sizes == expected
    sizes.clear()
    # each row's own estimate is a stack of one
    collect_row_estimates(build_data_array(values, p=p), recording_sizes(sizes), config)
    assert sorted(sizes) == sorted([1] * p + expected * p)


def test_evaluation_error_names_row_and_closed_range(monkeypatch):
    # Row 3 alone holds values above 100; the estimator rejects its
    # resamples.  A stack of one is the row's own estimate, which passes.
    grid = np.tile(np.arange(30.0)[:, None], (1, 4))
    grid[:, 2] += 1000.0
    array = build_data_array(grid.ravel(), p=4)

    def batch(stack):
        if stack.shape[0] > 1 and stack.max() > 100.0:
            raise ValueError("value above 100")
        return stack.reshape(stack.shape[0], -1).mean(axis=1)

    est = EstimatorSpec(name="capped", dim=1, evaluate=batch)
    monkeypatch.setattr(resample_module, "_CHUNK_BYTES", 20 * 30 * 8)
    with pytest.raises(EvaluationError, match=r"on row 3 resamples 1\.\.20: value above 100"):
        collect_row_estimates(array, est, BootstrapConfig(replicates=50, seed=2))
